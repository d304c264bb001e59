// Package simmatrix provides the node-similarity matrix mat() of
// Section 3.1: for every node pair (v, u) ∈ V1 × V2, mat(v, u) ∈ [0, 1]
// says how close the two nodes are, and a similarity threshold ξ gates
// which pairs are admissible matches (v may map to u only if
// mat(v, u) ≥ ξ).
//
// The paper leaves the origin of mat() open — shingle-based textual
// similarity, vertex-similarity matrices, or plain label equality — so the
// package defines a small Matrix interface with several implementations:
//
//   - Dense: an explicit |V1|×|V2| float matrix.
//   - Sparse: a map-backed matrix for the common case where most pairs
//     score zero (e.g. the worked examples and reduction constructions).
//   - LabelEquality: mat(v, u) = 1 iff L1(v) = L2(u) (the convention used
//     in Fig. 2's examples and the conventional-notion comparisons).
//   - Grouped: labels are partitioned into groups; cross-group pairs score
//     0 and in-group pairs carry a per-pair score (the synthetic-data
//     convention of Section 6).
//   - FromContent: shingle resemblance of node contents (the Web-graph
//     convention of Section 6).
//
// Matrices built over a data graph's candidate index (index.go) can also
// list, per pattern node, the data nodes at or above a threshold; Row is
// the one place that asks for that list or falls back to scoring every
// node. The content index is flat arrays (ascending shingles, postings
// cut from one node array), and ContentIndex.Matrix scores only the pairs
// that can reach the request's ξ: a matrix built at ξ keeps the entries
// ≥ ξ and refuses to be listed below it.
package simmatrix

import "graphmatch/internal/graph"

// Matrix scores the similarity of node v of G1 against node u of G2.
// Implementations must return values in [0, 1] and be safe for concurrent
// readers once built.
type Matrix interface {
	Score(v, u graph.NodeID) float64
}

// Dense is an explicit matrix over dense node IDs.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix (rows index V1, cols V2).
func NewDense(rows, cols int) *Dense {
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Set assigns mat(v, u) = s.
func (d *Dense) Set(v, u graph.NodeID, s float64) {
	d.data[int(v)*d.cols+int(u)] = s
}

// Score reports mat(v, u).
func (d *Dense) Score(v, u graph.NodeID) float64 {
	return d.data[int(v)*d.cols+int(u)]
}

// Rows reports |V1|.
func (d *Dense) Rows() int { return d.rows }

// Cols reports |V2|.
func (d *Dense) Cols() int { return d.cols }

// Sparse is a map-backed matrix: absent pairs score 0.
type Sparse struct {
	scores map[[2]graph.NodeID]float64
}

// NewSparse returns an empty sparse matrix.
func NewSparse() *Sparse {
	return &Sparse{scores: make(map[[2]graph.NodeID]float64)}
}

// Set assigns mat(v, u) = s.
func (sp *Sparse) Set(v, u graph.NodeID, s float64) {
	sp.scores[[2]graph.NodeID{v, u}] = s
}

// Score reports mat(v, u), zero when unset.
func (sp *Sparse) Score(v, u graph.NodeID) float64 {
	return sp.scores[[2]graph.NodeID{v, u}]
}

// Len reports the number of explicitly set pairs.
func (sp *Sparse) Len() int { return len(sp.scores) }

// LabelEquality scores 1 for equal labels and 0 otherwise — the similarity
// convention of the paper's Fig. 2 walkthrough ("mat(v, u) = 1 if u and v
// have the same label").
type LabelEquality struct {
	g1, g2 *graph.Graph
}

// NewLabelEquality builds a label-equality matrix over the two graphs.
func NewLabelEquality(g1, g2 *graph.Graph) *LabelEquality {
	return &LabelEquality{g1: g1, g2: g2}
}

// Score reports 1 iff the labels coincide.
func (le *LabelEquality) Score(v, u graph.NodeID) float64 {
	if le.g1.Label(v) == le.g2.Label(u) {
		return 1
	}
	return 0
}

// FromContent builds the matrix of shingle resemblance of node contents,
// falling back to label text when a node has no content. This is how
// Web-graph similarity is derived in Section 6 ("the similarity between
// two nodes was measured by the textual similarity of their contents based
// on shingles").
func FromContent(g1, g2 *graph.Graph, shingleSize int) *RowSparse {
	return FromContentSets(g1, NewContentIndex(g2, shingleSize), shingleSize)
}

// FromContentSets builds the full content-similarity matrix of g1 (every
// nonzero entry, readable at any ξ) against an indexed data graph (the
// serving catalog keeps one ContentIndex per registered graph, so the
// data side is shingled once, not per request). shingleSize must match
// the one the index was built with.
func FromContentSets(g1 *graph.Graph, data *ContentIndex, shingleSize int) *RowSparse {
	return data.Matrix(NewContentPattern(g1, shingleSize), 0)
}

func contentText(g *graph.Graph, v graph.NodeID) string {
	if c := g.Content(v); c != "" {
		return c
	}
	return g.Label(v)
}

// Candidates lists, for every node v of g1, the nodes u of g2 with
// mat(v, u) ≥ ξ — the initial H[v].good sets of Fig. 3 (line 4). The
// result is indexed by v.
func Candidates(g1, g2 *graph.Graph, mat Matrix, xi float64) [][]graph.NodeID {
	out := make([][]graph.NodeID, g1.NumNodes())
	var row []Scored
	for v := range out {
		row = Row(row[:0], mat, graph.NodeID(v), g2.NumNodes(), xi)
		if len(row) == 0 {
			continue
		}
		out[v] = make([]graph.NodeID, len(row))
		for i, e := range row {
			out[v][i] = e.U
		}
	}
	return out
}

// Constant scores every pair with the same value; useful in tests and for
// degenerate configurations.
type Constant float64

// Score reports the constant.
func (c Constant) Score(v, u graph.NodeID) float64 { return float64(c) }
