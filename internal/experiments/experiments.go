// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6): Table 2 (data-set statistics), Table 3 (accuracy
// and scalability on Web-site archives) and Figures 5–6 (accuracy and
// scalability on synthetic graphs versus size m, noise rate and similarity
// threshold ξ).
//
// The conventions follow the paper exactly: the match threshold is 0.75
// (G1 matches G2 when qualCard(σ) ≥ 0.75, resp. qualSim), node weights are
// uniform, the similarity threshold ξ defaults to 0.75, each accuracy
// number is the percentage of candidate graphs matched, and data sets are
// generated so that every candidate is a true match by construction.
package experiments

import (
	"context"
	"time"

	"graphmatch/internal/core"
	"graphmatch/internal/featsim"
	"graphmatch/internal/ged"
	"graphmatch/internal/graph"
	"graphmatch/internal/mcs"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/simulation"
	"graphmatch/internal/vertexsim"
)

// Algorithm identifies one competitor in the evaluation.
type Algorithm string

// The evaluated algorithms: the paper's four, plus the three baselines.
const (
	CompMaxCard   Algorithm = "compMaxCard"
	CompMaxCard11 Algorithm = "compMaxCard1-1"
	CompMaxSim    Algorithm = "compMaxSim"
	CompMaxSim11  Algorithm = "compMaxSim1-1"
	SF            Algorithm = "SF"              // similarity flooding [21]
	Blondel       Algorithm = "blondel"         // Blondel et al. vertex similarity [6]
	CDKMCS        Algorithm = "cdkMCS"          // maximum common subgraph [1]
	GraphSim      Algorithm = "graphSimulation" // graph simulation [17]
	BagOfPaths    Algorithm = "bagOfPaths"      // feature-based baseline [18]
	GED           Algorithm = "editDistance"    // graph edit distance [31]
)

// OurAlgorithms lists the paper's four approximation algorithms in Table 3
// order.
var OurAlgorithms = []Algorithm{CompMaxCard, CompMaxCard11, CompMaxSim, CompMaxSim11}

// Outcome is one algorithm run on one (pattern, data) pair.
type Outcome struct {
	Matched bool
	Quality float64
	Elapsed time.Duration
	// NA marks runs that did not complete (cdkMCS beyond its budget).
	NA bool
}

// RunOne executes one algorithm on a prepared instance and applies the
// paper's match convention at matchBar. mcsBudget bounds the cdkMCS
// search; the other algorithms ignore it.
func RunOne(alg Algorithm, in *core.Instance, mcsBudget time.Duration, matchBar float64) Outcome {
	start := time.Now()
	var out Outcome
	// The comp* entry points fail only on cancellation, and Background
	// is never cancelled.
	switch alg {
	case CompMaxCard:
		m, _ := in.CompMaxCardCtx(context.Background())
		out.Quality = in.QualCard(m)
	case CompMaxCard11:
		m, _ := in.CompMaxCard11Ctx(context.Background())
		out.Quality = in.QualCard(m)
	case CompMaxSim:
		m, _ := in.CompMaxSimCtx(context.Background())
		out.Quality = in.QualSim(m)
	case CompMaxSim11:
		m, _ := in.CompMaxSim11Ctx(context.Background())
		out.Quality = in.QualSim(m)
	case SF:
		// Similarity flooding proposes the alignment; its quality is
		// judged against the original node similarity (a flooded score is
		// not calibrated to [0, 1] per pair), counting the pattern nodes
		// whose aligned partner is genuinely similar.
		flooded := vertexsim.Flood(in.G1, in.G2, in.Mat, vertexsim.Options{MaxIter: 15})
		out.Quality = alignmentQuality(in, vertexsim.Extract(flooded))
	case Blondel:
		// The paper also ran Blondel et al.'s vertex similarity and found
		// it comparable to SF; the same alignment-extraction convention
		// applies.
		scores := vertexsim.Blondel(in.G1, in.G2, vertexsim.Options{MaxIter: 20})
		out.Quality = alignmentQuality(in, vertexsim.Extract(scores))
	case CDKMCS:
		res, err := mcs.Find(in.G1, in.G2, in.Mat, mcs.Options{Xi: in.Xi, Budget: mcsBudget})
		if err != nil {
			out.NA = true
		}
		if in.G1.NumNodes() > 0 {
			out.Quality = float64(res.Cardinality()) / float64(in.G1.NumNodes())
		}
	case GraphSim:
		r := simulation.Compute(in.G1, in.G2, in.Mat, in.Xi)
		if r.Matches() {
			out.Quality = 1
		} else {
			out.Quality = 0
		}
	case BagOfPaths:
		// Feature-based similarity is a single graph-level score; the
		// match bar applies to it directly (the paper's future-work
		// comparison).
		out.Quality = featsim.Similarity(in.G1, in.G2)
	case GED:
		// Edit-distance similarity, like MCS, blows up beyond small
		// graphs; the expansion budget takes the role of the deadline.
		s, err := ged.Similarity(in.G1, in.G2, ged.Options{Budget: 20000})
		if err != nil {
			out.NA = true
		} else {
			out.Quality = s
		}
	}
	out.Elapsed = time.Since(start)
	out.Matched = !out.NA && out.Quality >= matchBar
	return out
}

// alignmentQuality judges a vertex-similarity alignment: the fraction of
// pattern nodes whose aligned partner is genuinely similar under the
// instance's matrix (a flooded or iterated score is not calibrated to
// [0, 1] per pair, so the original mat() does the judging).
func alignmentQuality(in *core.Instance, a *vertexsim.Alignment) float64 {
	n := in.G1.NumNodes()
	if n == 0 {
		return 1
	}
	good := 0
	for v, u := range a.Pairs {
		if in.Mat.Score(v, u) >= in.Xi {
			good++
		}
	}
	return float64(good) / float64(n)
}

// Aggregate accumulates outcomes into the two numbers Table 3 and the
// figures report: accuracy (percent matched) and mean seconds per run.
type Aggregate struct {
	Runs    int
	Matches int
	NARuns  int
	Total   time.Duration
}

// Add folds one outcome in.
func (a *Aggregate) Add(o Outcome) {
	a.Runs++
	if o.NA {
		a.NARuns++
	}
	if o.Matched {
		a.Matches++
	}
	a.Total += o.Elapsed
}

// AccuracyPercent is the paper's accuracy measure.
func (a *Aggregate) AccuracyPercent() float64 {
	if a.Runs == 0 {
		return 0
	}
	return 100 * float64(a.Matches) / float64(a.Runs)
}

// MeanSeconds is the paper's scalability measure.
func (a *Aggregate) MeanSeconds() float64 {
	if a.Runs == 0 {
		return 0
	}
	return a.Total.Seconds() / float64(a.Runs)
}

// AllNA reports whether every run failed to complete.
func (a *Aggregate) AllNA() bool { return a.Runs > 0 && a.NARuns == a.Runs }

// contentInstance prepares a matching instance between two Web skeletons:
// node similarity is shingle resemblance of page contents, as in Exp-1.
func contentInstance(pattern, data *graph.Graph, xi float64) *core.Instance {
	mat := simmatrix.FromContent(pattern, data, 4)
	return core.NewInstance(pattern, data, mat, xi)
}
