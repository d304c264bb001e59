// Package search is the catalog-wide graph search subsystem: it ranks
// every data graph registered with the serving catalog against a query
// pattern and returns the best matches, turning the one-graph-per-request
// matcher into a graph search service — the paper's headline Web-mirror
// application ("which of these archived sites is the one this skeleton
// describes?") asked over a whole fleet of graphs at once.
//
// Running the p-hom matcher against every registered graph is the
// brute-force scan, and its cost grows linearly with the catalog. The
// subsystem instead splits a search into two stages, mirroring the
// filter-then-verify architecture of modern subgraph-matching pipelines
// (a cheap candidate filter gates the expensive matcher):
//
//   - Stage 1 — candidate index. An inverted index maps content
//     shingles (the same Broder shingles the similarity matrix mat()
//     is built from, see internal/shingle) to the graphs that contain
//     them, alongside cheap structural signatures (node/edge counts,
//     a log-scale degree histogram). Scoring a pattern against the
//     whole catalog costs one posting lookup per pattern shingle — no
//     matcher, no closure — and yields a containment estimate per
//     graph that prunes hopeless candidates and orders the rest.
//
//   - Stage 2 — ranked matching. The surviving candidates fan out
//     through the engine's worker pool as ordinary match requests; the
//     per-candidate qualities fold into a deterministic top-k heap
//     (ties broken by graph name) so repeated searches over the same
//     catalog return byte-identical rankings.
//
// The index is a cache keyed by graph version. The catalog gives every
// registered or patched graph version its own *graph.Graph, and each
// search reads the registry once, so a search started after a Remove
// returns never ranks the removed graph, and a newly registered graph
// is searchable the moment Register returns. The catalog never calls
// out to the index, and any number of indexes may share one catalog.
// Summaries are built lazily outside the index lock: registration stays
// cheap, and the first search after a registration or patch pays the
// shingling, into the catalog's content index of that graph version,
// which stage 2's content matrices read too.
package search

import (
	"math"
	"math/bits"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// HistBuckets is the size of the structural degree histogram: bucket i
// counts nodes whose total degree d has bit-length i (d = 0, 1, 2–3,
// 4–7, ...), with the last bucket absorbing everything larger. A
// log-scale histogram separates hub-and-spoke sites from meshes at any
// size, which is what a structural prefilter needs.
const HistBuckets = 8

// Signature is the cheap structural summary of one graph.
type Signature struct {
	// Nodes and Edges are the graph's size.
	Nodes int
	Edges int
	// DegHist is the normalised log-scale total-degree histogram; the
	// buckets sum to 1 for a non-empty graph.
	DegHist [HistBuckets]float64
}

// degreeBucket maps a total degree to its log-scale histogram bucket.
func degreeBucket(d int) int {
	b := bits.Len(uint(d))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// SignatureOf derives the structural signature of g.
func SignatureOf(g *graph.Graph) Signature {
	s := Signature{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.Nodes == 0 {
		return s
	}
	var counts [HistBuckets]int
	for v := 0; v < s.Nodes; v++ {
		counts[degreeBucket(g.Degree(graph.NodeID(v)))]++
	}
	for i, c := range counts {
		s.DegHist[i] = float64(c) / float64(s.Nodes)
	}
	return s
}

// StructSim scores the similarity of two degree histograms in [0, 1]:
// 1 − L1/2, so identical shapes score 1 and disjoint ones 0. The
// histograms are normalised, which makes the measure size-invariant —
// a skeleton and the site it was carved from keep similar shapes.
func (s Signature) StructSim(t Signature) float64 {
	l1 := 0.0
	for i := range s.DegHist {
		l1 += math.Abs(s.DegHist[i] - t.DegHist[i])
	}
	return 1 - l1/2
}

// MaxIndexedShingles caps the shingle hashes indexed per graph. Graphs
// with more distinct shingles contribute their smallest-valued hashes —
// a bottom-k sketch, which is a uniform sample of the set because the
// hashes are themselves uniform — and scoring scales the observed
// overlap back up by the sample rate. The cap bounds the inverted
// index at O(catalog size · MaxIndexedShingles) no matter how much
// text the registered graphs carry.
const MaxIndexedShingles = 1 << 16

// Summary is the stage-1 view of one graph (or of a query pattern):
// its structural signature plus the indexed sample of its content
// shingle set.
type Summary struct {
	// Sig is the structural signature.
	Sig Signature
	// Hashes is the sorted, distinct sample of content shingle hashes
	// (the union over all nodes of the per-node sets the similarity
	// matrix uses, content falling back to label).
	Hashes []uint64
	// Total is the number of distinct shingles before sampling; equal
	// to len(Hashes) whenever the graph fits the cap, in which case
	// stage-1 containment is exact rather than estimated.
	Total int
	// Nodes, set on a query pattern's summary only, is the pattern's
	// per-node shingle structure, the ContentPattern Hashes was read
	// from. With it, Candidates counts for every candidate and pattern
	// node how many of the node's shingles the graph holds
	// (Candidate.Held).
	Nodes *simmatrix.ContentPattern
}

// Summarize builds the stage-1 summary of g. It is a pure function of
// the graph — safe to call concurrently, no shared state.
func Summarize(g *graph.Graph) Summary {
	return SummaryOf(g, simmatrix.NewContentPattern(g, 0).Shingles())
}

// SummaryOf builds the stage-1 summary of g from its distinct content
// shingles in ascending order (ContentIndex.Shingles or
// ContentPattern.Shingles, default window). Hashes is the bottom-k
// prefix of shingles itself, not a copy, so summaries read from one
// content index share its key array.
func SummaryOf(g *graph.Graph, shingles []uint64) Summary {
	n := min(len(shingles), MaxIndexedShingles)
	return Summary{Sig: SignatureOf(g), Hashes: shingles[:n:n], Total: len(shingles)}
}

// sampleRate is the fraction of the graph's distinct shingles that made
// it into Hashes (1 for empty or uncapped sets).
func (s Summary) sampleRate() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(len(s.Hashes)) / float64(s.Total)
}

// scoreContent converts a raw posting overlap (pattern hashes found in
// the graph's indexed sample) into containment and resemblance
// estimates. Empty sets score by convention, so search scoring never
// divides by zero: two empty sets resemble fully, as in the content
// matrix; an empty pattern is contained in anything; and an empty graph
// contains nothing. When both sides fit MaxIndexedShingles the
// estimates are exact; otherwise the overlap is scaled by the smaller
// sample rate (both samples keep their smallest hashes, so the shared
// low-hash region is governed by the more aggressively sampled side).
func scoreContent(p, g Summary, overlap int) (containment, resemblance float64) {
	np, ng := p.Total, g.Total
	switch {
	case np == 0 && ng == 0:
		return 1, 1
	case np == 0:
		return 1, 0
	case ng == 0:
		return 0, 0
	}
	est := float64(overlap) / min(p.sampleRate(), g.sampleRate())
	if limit := float64(min(np, ng)); est > limit {
		est = limit
	}
	containment = est / float64(np)
	resemblance = est / (float64(np) + float64(ng) - est)
	return containment, resemblance
}

// Policy bounds stage 1: how many candidates may reach the matcher and
// how weak a content overlap is still worth matching. The zero value
// prunes nothing — every registered graph becomes a candidate, ordered
// by prefilter score — which makes the prefiltered search provably
// equivalent to the brute-force scan (the prefilter then only orders,
// never drops).
type Policy struct {
	// MaxCandidates caps the candidates handed to the matcher, keeping
	// the best-scored (ties by name). Non-positive means unlimited.
	MaxCandidates int
	// MinResemblance prunes candidates whose content score — the
	// containment of the pattern's shingles in the graph, Broder's
	// directional variant of resemblance, which is the right direction
	// for pattern-in-graph search where the data graph dwarfs the
	// pattern — falls below it. Non-positive keeps every graph.
	MinResemblance float64
	// Brute bypasses scoring entirely: every registered graph becomes
	// a candidate in name order with zero scores. This is the
	// brute-force baseline the benchmark compares the prefilter
	// against.
	Brute bool
}

// Candidate is one graph that survived stage 1.
type Candidate struct {
	// Name is the registered graph name.
	Name string
	// Score is the combined prefilter score candidates are ordered by
	// (content containment blended with structural similarity).
	Score float64
	// Containment estimates how much of the pattern's shingle set the
	// graph covers.
	Containment float64
	// Resemblance estimates the Jaccard resemblance of the two shingle
	// sets.
	Resemblance float64
	// StructSim is the degree-histogram similarity.
	StructSim float64
	// Overlap is the raw count of shared indexed shingle hashes.
	Overlap int
	// Held[v] is how many of pattern node v's shingles the graph holds,
	// read off the postings that gave Overlap. It is nil unless the query
	// summary carries Nodes and neither side's shingle set was sampled.
	// |S_v ∩ U_G| / |S_v| bounds v's resemblance to every node of the
	// graph, U_G being the union of the graph's node shingle sets. The
	// counts may share memory with other candidates' and must not be
	// modified.
	Held []int32
}

// Stats reports what stage 1 did for one query.
type Stats struct {
	// Graphs is the number of registered graphs visible to the query.
	Graphs int
	// Candidates survived pruning and were returned.
	Candidates int
	// PrunedScore counts graphs dropped by Policy.MinResemblance.
	PrunedScore int
	// PrunedCap counts graphs dropped by Policy.MaxCandidates.
	PrunedCap int
	// Installed counts the graph versions whose postings the query
	// installed: newly registered graphs and versions whose shingle
	// set is a new one. A version left by an edge-only patch shares its
	// predecessor's shingles and installs nothing.
	Installed int
	// Dropped counts the removed graphs whose postings the query
	// dropped.
	Dropped int
}

// structWeight blends the structural signature into the candidate
// score: content dominates (it is what the matcher's similarity matrix
// measures too), structure splits content ties between shape-alike and
// shape-unlike graphs.
const structWeight = 0.15
