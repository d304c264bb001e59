package simmatrix

import (
	"cmp"
	"slices"

	"graphmatch/internal/graph"
	"graphmatch/internal/shingle"
)

// This file holds the candidate index of a data graph and the matrices
// built over it. Fig. 3 line 4 starts every matcher from
// H[v].good = {u | mat(v, u) ≥ ξ}; computed from Score alone that is a
// visit to every (v, u) pair. A matrix built over postings knows which
// pairs can score at all, so it lists that set itself (Enumerable), and
// because the list comes from the matrix it can never disagree with
// Score.

// Scored is one entry of a matrix row's support: a data node and its
// score against the row's pattern node.
type Scored struct {
	U     graph.NodeID
	Score float64
}

// Enumerable is the optional interface of matrices that can list a
// row's support without visiting every data node.
type Enumerable interface {
	Matrix
	// Support appends to dst every (u, mat(v, u)) with mat(v, u) ≥ xi in
	// ascending u and reports true, or leaves dst alone and reports false
	// when it cannot list that set — always for xi ≤ 0, which admits
	// every data node, the zero-scoring ones no posting mentions
	// included.
	Support(dst []Scored, v graph.NodeID, xi float64) ([]Scored, bool)
}

// Row appends to dst every (u, mat(v, u)) with mat(v, u) ≥ xi over the
// n2 nodes of the data graph, in ascending u: from the matrix's own
// enumeration when it offers one, by scoring all n2 nodes otherwise.
func Row(dst []Scored, mat Matrix, v graph.NodeID, n2 int, xi float64) []Scored {
	if en, ok := mat.(Enumerable); ok {
		if out, ok := en.Support(dst, v, xi); ok {
			return out
		}
	}
	for u := 0; u < n2; u++ {
		if s := mat.Score(v, graph.NodeID(u)); s >= xi {
			dst = append(dst, Scored{U: graph.NodeID(u), Score: s})
		}
	}
	return dst
}

// CutRows slices all, the rows of a matrix appended one after another,
// into the rows themselves; ends[v] is where row v stops. Building rows
// in one backing array and cutting it once it has stopped growing costs
// one allocation series instead of one per row.
func CutRows(all []Scored, ends []int) [][]Scored {
	rows := make([][]Scored, len(ends))
	start := 0
	for v, end := range ends {
		rows[v] = all[start:end:end]
		start = end
	}
	return rows
}

// Approximate heap cost of one posting-map entry beyond its nodes: the
// key, the slice header and the bucket share.
const postingOverhead = 48

// ContentIndex is the candidate index of a data graph under content
// similarity: the ascending node postings of every shingle (of a node's
// content, falling back to its label), every node's set size, and the
// nodes whose set is empty — which resemble exactly the empty pattern
// sets, fully, and so appear in no posting. It is immutable once built.
type ContentIndex struct {
	sizes    []int32 // per node, distinct shingles
	postings map[uint64][]graph.NodeID
	empty    []graph.NodeID
	entries  int64 // Σ sizes[u]
}

// NewContentIndex shingles every node of g with the given window
// (non-positive selects shingle.DefaultSize).
func NewContentIndex(g *graph.Graph, shingleSize int) *ContentIndex {
	ix := &ContentIndex{
		sizes:    make([]int32, g.NumNodes()),
		postings: make(map[uint64][]graph.NodeID),
	}
	sh := shingle.NewShingler(shingleSize)
	for u := range ix.sizes {
		uu := graph.NodeID(u)
		set := sh.Shingle(contentText(g, uu))
		ix.sizes[u] = int32(len(set))
		ix.entries += int64(len(set))
		for h := range set {
			ix.postings[h] = append(ix.postings[h], uu)
		}
		if len(set) == 0 {
			ix.empty = append(ix.empty, uu)
		}
	}
	return ix
}

// NumNodes reports how many nodes the index covers.
func (ix *ContentIndex) NumNodes() int { return len(ix.sizes) }

// Bytes approximates the heap the index holds: each (node, shingle)
// entry once, in the shingle's posting.
func (ix *ContentIndex) Bytes() int64 {
	return 4*ix.entries + postingOverhead*int64(len(ix.postings)) + 4*int64(len(ix.sizes)) + 4*int64(len(ix.empty))
}

// Matrix builds the resemblance matrix of pattern-side shingle sets
// (ContentSets of the pattern, same window) against the indexed graph.
// Only pairs sharing a shingle are scored — any other pair resembles 0,
// except two empty sets, which resemble 1 — from the same integers
// shingle.Resemblance divides, so every entry equals the pairwise build.
func (ix *ContentIndex) Matrix(sets1 []shingle.Set) *RowSparse {
	ends := make([]int, len(sets1))
	var all []Scored
	inter := make([]int32, len(ix.sizes))
	var touched []graph.NodeID
	for v, set1 := range sets1 {
		if len(set1) == 0 {
			for _, u := range ix.empty {
				all = append(all, Scored{U: u, Score: 1})
			}
			ends[v] = len(all)
			continue
		}
		touched = touched[:0]
		for h := range set1 {
			for _, u := range ix.postings[h] {
				if inter[u] == 0 {
					touched = append(touched, u)
				}
				inter[u]++
			}
		}
		slices.Sort(touched)
		for _, u := range touched {
			n := int(inter[u])
			inter[u] = 0
			union := len(set1) + int(ix.sizes[u]) - n
			all = append(all, Scored{U: u, Score: float64(n) / float64(union)})
		}
		ends[v] = len(all)
	}
	return &RowSparse{rows: CutRows(all, ends)}
}

// RowSparse is a matrix stored as its rows' nonzero entries in ascending
// column order; absent pairs score 0.
type RowSparse struct {
	rows [][]Scored
}

// Score reports mat(v, u).
func (m *RowSparse) Score(v, u graph.NodeID) float64 {
	row := m.rows[v]
	i, ok := slices.BinarySearchFunc(row, u, func(e Scored, u graph.NodeID) int { return cmp.Compare(e.U, u) })
	if !ok {
		return 0
	}
	return row[i].Score
}

// Support filters the stored row.
func (m *RowSparse) Support(dst []Scored, v graph.NodeID, xi float64) ([]Scored, bool) {
	if xi <= 0 {
		return dst, false
	}
	for _, e := range m.rows[v] {
		if e.Score >= xi {
			dst = append(dst, e)
		}
	}
	return dst, true
}
