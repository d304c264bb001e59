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
// The index stays coherent with the catalog through its mutation hook:
// Register and Remove update the index synchronously (in mutation
// order), so a search started after a Remove returns never ranks the
// removed graph, and a newly registered graph is searchable the moment
// Register returns. Summaries are built lazily outside the lock —
// registration stays cheap, the first search pays the shingling.
package search

import (
	"math"
	"math/bits"
	"sort"

	"graphmatch/internal/graph"
	"graphmatch/internal/shingle"
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

// signatureFromCounts assembles a Signature from raw degree-bucket
// counts — the representation the incremental index maintains, since
// counts compose under edge mutations while the normalised histogram
// does not.
func signatureFromCounts(nodes, edges int, counts [HistBuckets]int) Signature {
	s := Signature{Nodes: nodes, Edges: edges}
	if nodes == 0 {
		return s
	}
	for i, c := range counts {
		s.DegHist[i] = float64(c) / float64(nodes)
	}
	return s
}

// degreeCounts tallies the raw degree histogram of g.
func degreeCounts(g *graph.Graph) [HistBuckets]int {
	var counts [HistBuckets]int
	for v := 0; v < g.NumNodes(); v++ {
		counts[degreeBucket(g.Degree(graph.NodeID(v)))]++
	}
	return counts
}

// SignatureOf derives the structural signature of g.
func SignatureOf(g *graph.Graph) Signature {
	return signatureFromCounts(g.NumNodes(), g.NumEdges(), degreeCounts(g))
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
}

// Summarize builds the stage-1 summary of g. It is a pure function of
// the graph — safe to call concurrently, no shared state.
func Summarize(g *graph.Graph) Summary {
	return SummarizeSets(g, simmatrix.ContentSets(g, 0))
}

// SummarizeSets is Summarize for a caller that already holds g's
// per-node shingle sets (simmatrix.ContentSets, default window), so a
// query pattern is shingled once for both search stages.
func SummarizeSets(g *graph.Graph, sets []shingle.Set) Summary {
	sum, _, _ := summarizeCounted(g, sets)
	return sum
}

// summarizeCounted is Summarize plus the mutable intermediates the
// incremental index folds patches into: per-hash node refcounts (how
// many nodes contribute each distinct shingle — decrementable under
// content rewrites, where a plain set is not) and the raw degree-bucket
// counts behind the signature.
func summarizeCounted(g *graph.Graph, sets []shingle.Set) (Summary, map[uint64]int32, [HistBuckets]int) {
	counts := make(map[uint64]int32)
	for _, s := range sets {
		for h := range s {
			counts[h]++
		}
	}
	degs := degreeCounts(g)
	sum := Summary{Sig: signatureFromCounts(g.NumNodes(), g.NumEdges(), degs)}
	sum.Total, sum.Hashes = hashesFromCounts(counts)
	return sum, counts, degs
}

// hashesFromCounts derives the indexed bottom-k hash sample from the
// refcount map. Rebuilding from the full map (never from the previous
// sample) keeps incremental summaries bit-identical to Summarize: a
// hash that drops out of the bottom k and later returns is recovered
// exactly.
func hashesFromCounts(counts map[uint64]int32) (total int, hashes []uint64) {
	total = len(counts)
	hashes = make([]uint64, 0, len(counts))
	for h := range counts {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	if len(hashes) > MaxIndexedShingles {
		hashes = hashes[:MaxIndexedShingles:MaxIndexedShingles]
	}
	return total, hashes
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
// estimates, mirroring the shingle package's empty-set conventions so
// search scoring never divides by zero: two empty sets resemble fully,
// an empty pattern is contained in anything, and an empty graph
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
}

// structWeight blends the structural signature into the candidate
// score: content dominates (it is what the matcher's similarity matrix
// measures too), structure splits content ties between shape-alike and
// shape-unlike graphs.
const structWeight = 0.15
