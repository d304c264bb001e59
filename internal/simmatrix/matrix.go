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
// node.
package simmatrix

import (
	"graphmatch/internal/graph"
	"graphmatch/internal/shingle"
)

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

// Grouped implements the synthetic-data convention of Section 6: the label
// alphabet is partitioned into groups; labels in different groups are
// "totally different" (score 0) and labels in the same group carry a
// pairwise score assigned at generation time.
type Grouped struct {
	g1, g2 *graph.Graph
	group  map[string]int
	score  map[[2]string]float64
}

// NewGrouped builds a grouped matrix. group maps each label to its group
// index; score carries the in-group pairwise similarities keyed by
// [labelOfV, labelOfU]. Identical labels always score 1 even if absent
// from score.
func NewGrouped(g1, g2 *graph.Graph, group map[string]int, score map[[2]string]float64) *Grouped {
	return &Grouped{g1: g1, g2: g2, group: group, score: score}
}

// Score reports the configured in-group similarity.
func (gr *Grouped) Score(v, u graph.NodeID) float64 {
	lv, lu := gr.g1.Label(v), gr.g2.Label(u)
	if lv == lu {
		return 1
	}
	gv, okv := gr.group[lv]
	gu, oku := gr.group[lu]
	if !okv || !oku || gv != gu {
		return 0
	}
	return gr.score[[2]string{lv, lu}]
}

// FromContent builds the matrix of shingle resemblance of node contents,
// falling back to label text when a node has no content. This is how
// Web-graph similarity is derived in Section 6 ("the similarity between
// two nodes was measured by the textual similarity of their contents based
// on shingles").
func FromContent(g1, g2 *graph.Graph, shingleSize int) *RowSparse {
	return FromContentSets(g1, NewContentIndex(g2, shingleSize), shingleSize)
}

// ContentSets computes the shingle set of every node of g (content,
// falling back to the label), indexed by NodeID — the pattern-side input
// of ContentIndex.Matrix.
func ContentSets(g *graph.Graph, shingleSize int) []shingle.Set {
	sh := shingle.NewShingler(shingleSize)
	sets := make([]shingle.Set, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		sets[v] = sh.Shingle(contentText(g, graph.NodeID(v)))
	}
	return sets
}

// FromContentSets builds the content-similarity matrix of g1 against an
// indexed data graph (the serving catalog keeps one ContentIndex per
// registered graph, so the data side is shingled once, not per request).
// shingleSize must match the one the index was built with.
func FromContentSets(g1 *graph.Graph, data *ContentIndex, shingleSize int) *RowSparse {
	return data.Matrix(ContentSets(g1, shingleSize))
}

// ContentSet returns the shingle set of one node's content text
// (content falling back to label) — the per-node unit ContentSets
// aggregates, exposed so incremental maintenance of derived state (the
// search index under graph patches) re-shingles exactly the changed
// nodes with the same rule.
func ContentSet(g *graph.Graph, v graph.NodeID, shingleSize int) shingle.Set {
	return shingle.NewShingler(shingleSize).Shingle(contentText(g, v))
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
