package engine

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/search"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/trace"
)

// DefaultSearchK is the top-k size applied when a search request
// leaves K at 0.
const DefaultSearchK = 10

// SearchRequest asks "which registered graphs match this pattern
// best?": the pattern is scored against every graph in the catalog and
// the best K land in the result, ranked by match quality.
type SearchRequest struct {
	// Pattern is G1, the query. Normalised at submission; it must not
	// be mutated while the search is in flight.
	Pattern *graph.Graph
	// Algo selects the matching procedure run per candidate; empty
	// defaults to MaxSim (its qualSim metric gives the smoothest
	// ranking signal).
	Algo Algorithm
	// Xi is the node-similarity threshold ξ, clamped to [0, 1].
	Xi float64
	// PathLimit bounds pattern-edge images, as in Request.
	PathLimit int
	// Sim selects the similarity matrix; empty defaults to SimLabel.
	Sim SimKind
	// K is the number of ranked hits to return; 0 means DefaultSearchK.
	K int
	// MaxCandidates caps how many stage-1 candidates reach the
	// matcher; 0 or negative means unlimited.
	MaxCandidates int
	// MinResemblance prunes candidates whose stage-1 content score
	// falls below it; 0 or negative keeps every graph (the prefilter
	// then only orders candidates, so the search is exact).
	MinResemblance float64
	// NoPrefilter bypasses stage 1 entirely and matches every
	// registered graph — the brute-force scan the benchmark compares
	// the prefilter against.
	NoPrefilter bool
}

// SearchHit is one ranked search result.
type SearchHit struct {
	// Graph is the registered graph name.
	Graph string
	// Score is the quality the ranking ordered by (qualSim for the
	// maxsim algorithms, qualCard for the maxcard ones, the 0/1
	// verdict for the decision procedures and the simulation
	// baseline).
	Score float64
	// Holds, Matched, QualCard and QualSim mirror the per-candidate
	// match result.
	Holds    bool
	Matched  int
	QualCard float64
	QualSim  float64
	// Containment, Resemblance and StructSim are the stage-1 prefilter
	// scores of the candidate (zero under NoPrefilter).
	Containment float64
	Resemblance float64
	StructSim   float64
}

// SearchStats reports the work a search did, stage by stage.
type SearchStats struct {
	// Graphs is the catalog size the search ran over.
	Graphs int
	// Candidates survived stage 1 and were handed to the matcher.
	Candidates int
	// Pruned counts graphs stage 1 skipped (score threshold plus
	// candidate cap) — the matcher invocations the prefilter saved.
	Pruned int
	// Matched counts candidates the matcher actually scored.
	Matched int
	// Skipped counts candidates stage 2 never matched because their
	// bound showed they could not enter the top-k. Without a failure,
	// Matched + Skipped + Missing = Candidates.
	Skipped int
	// Missing counts candidates that vanished between stage 1 and
	// stage 2 (concurrently removed); they are silently dropped.
	Missing int
	// PruneRate is Pruned / Graphs, or 0 for an empty catalog.
	PruneRate float64
	// Stage1 and Stage2 are the wall times of candidate selection and
	// of the ranked matching fan-out.
	Stage1 time.Duration
	Stage2 time.Duration
}

// SearchResult carries the ranked hits and per-stage stats. Err is the
// request-level failure (validation, cancelled context, engine
// closed); per-candidate ErrNotFound from concurrent removals is not
// an error, just Stats.Missing.
type SearchResult struct {
	Hits  []SearchHit
	Stats SearchStats
	Err   error
}

// Search ranks the pattern against every registered graph and returns
// the top K hits. Stage 1 consults the candidate index (shingle
// postings + structural signatures) to order and prune the catalog
// without running the matcher, and under content similarity bounds the
// quality each candidate can reach. Stage 2 matches the candidates in
// descending bound order through a window of at most Workers tasks —
// concurrent, cancellable via ctx — folds the qualities into a
// deterministic top-k (ties broken by graph name), and stops once no
// remaining bound can enter it. The hits are those of matching every
// candidate, and reproducible: the same catalog and request return the
// same hits in the same order, and the same stats, on every run. The
// search is admitted once, for its whole window, so an idle server
// never sheds it whatever its candidate count.
func (e *Engine) Search(ctx context.Context, req SearchRequest) SearchResult {
	e.searches.Add(1)
	if req.Algo == "" {
		req.Algo = MaxSim
	}
	ssp := trace.SpanFromContext(ctx).Child("engine.search")
	if ssp.Active() {
		ssp.SetStr("algo", string(req.Algo))
		defer ssp.End()
	}
	// Every candidate's match is this request with the graph filled in.
	base := Request{Pattern: req.Pattern, Algo: req.Algo, Xi: req.Xi, PathLimit: req.PathLimit, Sim: req.Sim}
	if err := e.normalize(&base); err != nil {
		e.errors.Add(1)
		ssp.SetStr("error", err.Error())
		return SearchResult{Err: decorate(ctx, err)}
	}
	k := req.K
	if k <= 0 {
		k = DefaultSearchK
	}
	pol := search.Policy{Brute: req.NoPrefilter}
	if !req.NoPrefilter {
		// Brute force means every graph, so the request's bounds do not
		// apply to it.
		pol.MaxCandidates = max(req.MaxCandidates, 0)
		pol.MinResemblance = math.Max(req.MinResemblance, 0)
	}
	// Prepare the pattern once, up front: stage 1 summarises the same
	// distinct shingles every stage-2 content matrix is built from.
	prep := e.prepare(req.Pattern).content()
	query := search.SummaryOf(req.Pattern, prep.pattern.Shingles())
	if base.Sim == SimContent && boundable(base.Algo) {
		query.Nodes = prep.pattern
	}

	start := time.Now()
	cands, cstats := e.searchIdx.Candidates(query, pol)
	stats := SearchStats{
		Graphs:     cstats.Graphs,
		Candidates: len(cands),
		Pruned:     cstats.PrunedScore + cstats.PrunedCap,
	}
	// Stage 2 visits the candidates in descending bound order; the
	// stable sort keeps stage 1's order among equal bounds.
	queue := make([]queued, len(cands))
	for i, c := range cands {
		queue[i] = queued{cand: c, bound: rankBound(base, prep.pattern, c.Held)}
	}
	slices.SortStableFunc(queue, func(a, b queued) int { return cmp.Compare(b.bound, a.bound) })
	stats.Stage1 = time.Since(start)
	if stats.Graphs > 0 {
		stats.PruneRate = float64(stats.Pruned) / float64(stats.Graphs)
		e.mSearchPruneRatio.Observe(stats.PruneRate)
	}
	e.mSearchStage1.Observe(stats.Stage1.Seconds())
	e.mSearchCandidates.Observe(float64(stats.Candidates))
	if ssp.Active() {
		s1 := ssp.ChildSpanning("search.stage1", start, start.Add(stats.Stage1))
		s1.SetInt("graphs", int64(stats.Graphs))
		s1.SetInt("candidates", int64(stats.Candidates))
		s1.SetInt("pruned", int64(stats.Pruned))
		s1.SetFloat("prune_rate", stats.PruneRate)
		s1.SetInt("installed", int64(cstats.Installed))
		s1.SetInt("dropped", int64(cstats.Dropped))
	}
	if ctx.Err() != nil {
		e.errors.Add(1)
		ssp.SetStr("error", ctx.Err().Error())
		return SearchResult{Stats: stats, Err: decorate(ctx, deadline(ctx))}
	}

	// Stage 2 is one fan-out over the queue, folded in queue order, so
	// where it stops depends on the results alone. It stops at the first
	// candidate that can no longer enter the top-k: the fold holds k hits
	// and the k-th primary score is strictly above the candidate's bound,
	// hence above every later one's. An equal score could still win on
	// the tie key or the name. Tasks in flight past the stop are
	// abandoned: they give up at pickup or mid-match.
	stage2 := time.Now()
	top := search.NewTopK(k)
	wctx, abandon := context.WithCancel(ctx)
	defer abandon()
	var firstErr error
	folded, err := e.fanOut(ctx, len(queue), func(i int) (*task, error) {
		e.requests.Add(1)
		r := base
		r.GraphName = queue[i].cand.Name
		return &task{req: r, prep: prep, ctx: wctx}, nil
	}, func(i int) bool {
		floor, full := top.Floor()
		return full && floor.Score > queue[i].bound
	}, func(i int, res Result) {
		switch {
		case errors.Is(res.Err, catalog.ErrNotFound):
			stats.Missing++ // removed between the stages: not a hit, not an error
		case res.Err != nil:
			if firstErr == nil {
				firstErr = res.Err
			}
		default:
			stats.Matched++
			primary, tie := rankScore(base.Algo, res)
			top.Push(search.Hit{Name: queue[i].cand.Name, Score: primary, Tie: tie, Payload: searchPayload{cand: queue[i].cand, res: res}})
		}
	})
	if err != nil {
		e.errors.Add(1)
		ssp.SetBool("shed", true)
		return SearchResult{Stats: stats, Err: decorate(ctx, err)}
	}
	if firstErr == nil {
		stats.Skipped = len(queue) - folded
	}
	stats.Stage2 = time.Since(stage2)
	e.mSearchStage2.Observe(stats.Stage2.Seconds())
	e.mSearchMatched.Observe(float64(stats.Matched))
	if ssp.Active() {
		s2 := ssp.ChildSpanning("search.stage2", stage2, stage2.Add(stats.Stage2))
		s2.SetInt("matched", int64(stats.Matched))
		s2.SetInt("skipped", int64(stats.Skipped))
		s2.SetInt("missing", int64(stats.Missing))
		s2.SetBool("stopped_early", stats.Skipped > 0)
	}

	hits := make([]SearchHit, 0, top.Len())
	for _, h := range top.Ranked() {
		p := h.Payload.(searchPayload)
		hits = append(hits, SearchHit{
			Graph:       h.Name,
			Score:       h.Score,
			Holds:       p.res.Holds,
			Matched:     len(p.res.Mapping),
			QualCard:    p.res.QualCard,
			QualSim:     p.res.QualSim,
			Containment: p.cand.Containment,
			Resemblance: p.cand.Resemblance,
			StructSim:   p.cand.StructSim,
		})
	}
	return SearchResult{Hits: hits, Stats: stats, Err: firstErr}
}

// queued is a stage-1 candidate with the bound on the primary score it
// can reach.
type queued struct {
	cand  search.Candidate
	bound float64
}

// boundable reports whether an algorithm's primary score (rankScore)
// has a bound stage 1 can compute: qualCard or qualSim of a mapping. The
// 0/1 verdicts of the decision procedures and the simulation baseline
// have none.
func boundable(algo Algorithm) bool {
	switch algo {
	case MaxCard, MaxCard11, MaxSim, MaxSim11:
		return true
	}
	return false
}

// rankBound bounds the primary score a candidate can reach, from held,
// the counts stage 1 took of each pattern node's shingles in the graph:
// node v resembles no data node more than held[v] / |S_v|, and
// core.QualityBound turns those into bounds on the qualities. Without
// counts, or with a pattern node whose set is empty (it resembles the
// graph's empty nodes fully), the bound is +Inf: never skipped.
func rankBound(req Request, pat *simmatrix.ContentPattern, held []int32) float64 {
	if held == nil {
		return math.Inf(1)
	}
	ub := make([]float64, len(held))
	for v := range ub {
		a := len(pat.NodeKeys(graph.NodeID(v)))
		if a == 0 {
			return math.Inf(1)
		}
		ub[v] = float64(held[v]) / float64(a)
	}
	card, sim := core.QualityBound(req.Pattern, ub, req.Xi)
	if req.Algo == MaxSim || req.Algo == MaxSim11 {
		return sim
	}
	return card
}

// searchPayload rides through the top-k fold.
type searchPayload struct {
	cand search.Candidate
	res  Result
}

// rankScore maps a match result onto the (primary, tie) ranking keys
// of the fold: whatever quality metric the chosen algorithm optimises
// ranks first, the other metric splits ties, and the graph name splits
// what remains (inside search.Better).
func rankScore(algo Algorithm, res Result) (primary, tie float64) {
	switch algo {
	case MaxSim, MaxSim11:
		return res.QualSim, res.QualCard
	case Decide, Decide11, Simulation:
		verdict := 0.0
		if res.Holds {
			verdict = 1
		}
		return verdict, res.QualSim
	default:
		return res.QualCard, res.QualSim
	}
}
