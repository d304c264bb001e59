package simmatrix

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// included. A matrix that kept only the entries at or above a floor
	// panics when asked below it, rather than list too few pairs or
	// send Row's fallback to scores it dropped.
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

// ContentIndex is the candidate index of a data graph under content
// similarity, in pointer-free arrays: the distinct shingles (of a node's
// content, falling back to its label) in ascending order, each one's
// ascending node posting cut from one shared array, every node's set
// size, and the nodes whose set is empty — which resemble exactly the
// empty pattern sets, fully, and so appear in no posting. It is
// immutable once built.
type ContentIndex struct {
	keys  []uint64       // distinct shingles, ascending
	offs  []int          // the posting of keys[k] is nodes[offs[k]:offs[k+1]]
	nodes []graph.NodeID // every posting, each ascending
	sizes []int32        // per node, distinct shingles
	empty []graph.NodeID
}

// NewContentIndex shingles every node of g with the given window
// (non-positive selects shingle.DefaultSize) into its candidate index,
// by shingleNodes' flat passes.
func NewContentIndex(g *graph.Graph, shingleSize int) *ContentIndex {
	keys, offs, nodes, sizes := shingleNodes(g, shingleSize)
	ix := &ContentIndex{keys: keys, offs: offs, nodes: slices.Clone(nodes), sizes: sizes}
	for u, size := range sizes {
		if size == 0 {
			ix.empty = append(ix.empty, graph.NodeID(u))
		}
	}
	return ix
}

// shingleNodes is the one shingling of a graph's nodes (content, falling
// back to the label), which both a data graph's index and a prepared
// pattern are read from: the distinct shingles in ascending order, the
// posting of keys[k] as nodes[offs[k]:offs[k+1]] in ascending node order,
// and per node its count of distinct shingles. It works in flat passes,
// with no map and no comparator: every node's window hashes, duplicates
// included, go into one array beside the id of their node; a stable
// radix sort orders them by hash, and since nodes were appended in
// ascending order every posting comes out ascending; one scan then emits
// the keys, cuts the postings, drops a node's repeated shingle and
// counts each node's distinct ones. nodes is cut from a scratch array
// sized for every window, duplicates included.
func shingleNodes(g *graph.Graph, shingleSize int) (keys []uint64, offs []int, nodes []graph.NodeID, sizes []int32) {
	n := g.NumNodes()
	sizes = make([]int32, n)
	sh := shingle.NewShingler(shingleSize)
	most := 0
	for u := range n {
		most += sh.MaxHashes(len(contentText(g, graph.NodeID(u))))
	}
	hs := make([]uint64, 0, most)
	for u := range n {
		from := len(hs)
		hs = sh.AppendHashes(hs, contentText(g, graph.NodeID(u)))
		sizes[u] = int32(len(hs) - from) // for now, the node's window count
	}
	ids := make([]graph.NodeID, 0, len(hs))
	for u, windows := range sizes {
		for range windows {
			ids = append(ids, graph.NodeID(u))
		}
		sizes[u] = 0
	}
	hs, ids = sortByHash(hs, ids)

	distinct := 0
	for i := range hs {
		if i == 0 || hs[i] != hs[i-1] {
			distinct++
		}
	}
	keys, offs = make([]uint64, 0, distinct), make([]int, 0, distinct+1)
	// The postings are written over ids in place: an entry is written
	// no later than it is read.
	post := 0
	for i, h := range hs {
		u := ids[i]
		if i > 0 && h == hs[i-1] {
			if u == ids[i-1] {
				continue // the node's repeated shingle
			}
		} else {
			keys = append(keys, h)
			offs = append(offs, post)
		}
		ids[post] = u
		post++
		sizes[u]++
	}
	offs = append(offs, post)
	return keys, offs, ids[:post], sizes
}

// sortByHash orders hs by value, and ids along with it, by a stable LSD
// radix sort over 8-bit digits that skips every digit all hashes share.
// It returns the sorted pair, which may be scratch arrays rather than
// the ones passed in.
func sortByHash(hs []uint64, ids []graph.NodeID) ([]uint64, []graph.NodeID) {
	if len(hs) < 2 {
		return hs, ids
	}
	var counts [8][256]int
	for _, h := range hs {
		counts[0][byte(h)]++
		counts[1][byte(h>>8)]++
		counts[2][byte(h>>16)]++
		counts[3][byte(h>>24)]++
		counts[4][byte(h>>32)]++
		counts[5][byte(h>>40)]++
		counts[6][byte(h>>48)]++
		counts[7][byte(h>>56)]++
	}
	hs2, ids2 := make([]uint64, len(hs)), make([]graph.NodeID, len(ids))
	for d := range counts {
		at := &counts[d]
		shift := 8 * d
		if at[byte(hs[0]>>shift)] == len(hs) {
			continue
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for i, h := range hs {
			j := &at[byte(h>>shift)]
			hs2[*j], ids2[*j] = h, ids[i]
			*j++
		}
		hs, hs2 = hs2, hs
		ids, ids2 = ids2, ids
	}
	return hs, ids
}

// NumNodes reports how many nodes the index covers.
func (ix *ContentIndex) NumNodes() int { return len(ix.sizes) }

// Shingles returns the distinct shingles of the graph, ascending: the
// index's own key array, which the caller must not modify.
func (ix *ContentIndex) Shingles() []uint64 { return ix.keys }

// Bytes reports the heap the index's arrays hold.
func (ix *ContentIndex) Bytes() int64 {
	return 8*int64(len(ix.keys)) + 8*int64(len(ix.offs)) + 4*int64(len(ix.nodes)) + 4*int64(len(ix.sizes)) + 4*int64(len(ix.empty))
}

// ContentPattern is a pattern's shingle sets made ready to score against
// any number of content indexes: its distinct shingles in ascending
// order, and per pattern node the ascending positions of its own
// shingles among them.
type ContentPattern struct {
	keys []uint64 // distinct shingles of all nodes, ascending
	offs []int    // node v's shingles are keys[at[offs[v]:offs[v+1]]]
	at   []int32
}

// NewContentPattern shingles every node of a pattern with the given
// window (the one of the indexes it will meet; non-positive selects
// shingle.DefaultSize) and prepares it for ContentIndex.Matrix. It reads
// shingleNodes' postings back per node: the pattern's keys are the
// postings' keys, and walking the keys in ascending order lists every
// node's own positions among them in ascending order too.
func NewContentPattern(g *graph.Graph, shingleSize int) *ContentPattern {
	keys, offs, nodes, sizes := shingleNodes(g, shingleSize)
	p := &ContentPattern{keys: keys, offs: make([]int, len(sizes)+1), at: make([]int32, len(nodes))}
	// While the postings are read, offs[v+1] is where node v's next
	// position goes: it starts at v's first and ends past its last.
	for v := 1; v < len(sizes); v++ {
		p.offs[v+1] = p.offs[v] + int(sizes[v-1])
	}
	for k := range keys {
		for _, v := range nodes[offs[k]:offs[k+1]] {
			p.at[p.offs[v+1]] = int32(k)
			p.offs[v+1]++
		}
	}
	return p
}

// Shingles returns the distinct shingles of all pattern nodes,
// ascending: the pattern's own key array, which the caller must not
// modify.
func (p *ContentPattern) Shingles() []uint64 { return p.keys }

// NumNodes reports how many pattern nodes p was prepared from.
func (p *ContentPattern) NumNodes() int { return len(p.offs) - 1 }

// NodeKeys returns the positions, among Shingles(), of pattern node v's
// distinct shingles; its length is |S_v|. The caller must not modify it.
func (p *ContentPattern) NodeKeys(v graph.NodeID) []int32 { return p.at[p.offs[v]:p.offs[v+1]] }

// minOverlap is the smallest n with float64(n)/float64(a) ≥ xi, or a+1
// when no n ≤ a reaches xi. A pattern set of a shingles resembles a set
// sharing n of them at most n/a, and float division is monotone in both
// operands, so a pair below this overlap cannot score ≥ xi. It divides
// as the score does rather than rounding ⌈xi·a⌉, which in float64 can
// overshoot (0.28·25 = 7.000000000000001) and drop admissible pairs.
func minOverlap(a int, xi float64) int {
	n := 0
	for n <= a && float64(n)/float64(a) < xi {
		n++
	}
	return n
}

// matrixScratch is what one Matrix call works in, pooled because a
// search builds a matrix for each of its candidate graphs.
type matrixScratch struct {
	post    []int          // per pattern shingle, its key index in the graph or -1
	present []uint64       // the current node's shingles in the graph: posting length<<32 | key index
	count   []int32        // per data node, probed postings listing it; zero between nodes
	touched []graph.NodeID // the data nodes count is nonzero for
}

var scratchPool = sync.Pool{New: func() any { return new(matrixScratch) }}

// Matrix builds the resemblance matrix of a prepared pattern against the
// indexed graph, keeping only entries ≥ xi: the matrix's floor, below
// which it must not be read (RowSparse.Support). Every kept entry is
// the Jaccard resemblance inter / (|S_v|+|S_u|−inter) of the two
// shingle sets, divided from the same integers as a pairwise build over
// the sets, so it equals that build bit for bit.
//
// Which pairs are counted at all follows the prefix filter of
// set-similarity joins (Chaudhuri et al., ICDE 2006; Bayardo et al.,
// WWW 2007): with a = |S_v|, m of v's shingles present in the graph and
// t = minOverlap(a, xi), a data node scoring ≥ xi shares at least t of
// those m, so it appears in some posting among any m−t+1 of them. The
// m−t+1 shortest postings are walked; every node they list is then
// verified by binary search in the other t−1, giving up as soon as even
// a hit in all the postings left could not lift it to xi, and scored
// exactly. At xi ≤ 0, t = 0 and every present posting is walked — the
// full build, with no second code path; at xi > 1 every row is empty.
func (ix *ContentIndex) Matrix(p *ContentPattern, xi float64) *RowSparse {
	s := scratchPool.Get().(*matrixScratch)
	defer scratchPool.Put(s)
	n2 := len(ix.sizes)
	if cap(s.count) < n2 {
		s.count = make([]int32, n2)
	}
	count := s.count[:n2]
	s.post = ix.resolve(s.post[:0], p.keys)
	posting := func(o uint64) []graph.NodeID {
		k := int(uint32(o))
		return ix.nodes[ix.offs[k]:ix.offs[k+1]]
	}

	n1 := p.NumNodes()
	ends := make([]int, n1)
	var all []Scored
	for v := range ends {
		at := p.NodeKeys(graph.NodeID(v))
		a := len(at)
		if a == 0 {
			if 1 >= xi { // two empty sets resemble fully
				for _, u := range ix.empty {
					all = append(all, Scored{U: u, Score: 1})
				}
			}
			ends[v] = len(all)
			continue
		}
		present := s.present[:0]
		for _, k := range at {
			if j := s.post[k]; j >= 0 {
				present = append(present, uint64(ix.offs[j+1]-ix.offs[j])<<32|uint64(j))
			}
		}
		s.present = present
		t := minOverlap(a, xi)
		if t > len(present) {
			ends[v] = len(all)
			continue
		}
		probe, rest := present, present[:0]
		if t > 0 {
			slices.Sort(present) // shortest posting first
			probe, rest = present[:len(present)-t+1], present[len(present)-t+1:]
		}
		touched := s.touched[:0]
		for _, o := range probe {
			for _, u := range posting(o) {
				if count[u] == 0 {
					touched = append(touched, u)
				}
				count[u]++
			}
		}
		s.touched = touched
		score := func(u graph.NodeID) {
			n, b := int(count[u]), int(ix.sizes[u])
			count[u] = 0
			for i, o := range rest {
				// At most n plus every posting left, and never more
				// than |S_u|; the score only grows with the overlap.
				most := min(n+len(rest)-i, b)
				if float64(most)/float64(a+b-most) < xi {
					return
				}
				if _, ok := slices.BinarySearch(posting(o), u); ok {
					n++
				}
			}
			if r := float64(n) / float64(a+b-n); r >= xi {
				all = append(all, Scored{U: u, Score: r})
			}
		}
		slices.Sort(touched) // rows ascend in u
		for _, u := range touched {
			score(u)
		}
		ends[v] = len(all)
	}
	return &RowSparse{rows: CutRows(all, ends), floor: xi}
}

// resolve appends to post, for every key of the ascending list keys, its
// index among ix.keys or -1 when the graph has no such shingle: one
// forward merge of the two lists that gallops over the graph's side.
func (ix *ContentIndex) resolve(post []int, keys []uint64) []int {
	n, j := len(ix.keys), 0 // every ix.keys[:j] is below the key sought
	for _, h := range keys {
		hi, step := j, 1
		for hi < n && ix.keys[hi] < h {
			j = hi + 1
			hi += step
			step *= 2
		}
		off, ok := slices.BinarySearch(ix.keys[j:min(hi+1, n)], h)
		j += off
		if !ok {
			post = append(post, -1)
			continue
		}
		post = append(post, j)
		j++
	}
	return post
}

// RowSparse is a matrix stored as its rows' nonzero entries in ascending
// column order; absent pairs score 0. A matrix built at a positive floor
// ξ holds only the entries ≥ ξ: pairs below it read 0 too, which every
// consumer tolerates because it reads at the ξ the matrix was built at —
// core through admissible and candidates() (H[v].good), QualSim over
// mapped (hence admissible) pairs, componentMatrix's maximum (exact when
// ≥ ξ, below ξ either way otherwise) and simulation.Compute (a ≥ ξ
// test). Support enforces the floor.
type RowSparse struct {
	rows  [][]Scored
	floor float64
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

// Support filters the stored row. It panics when xi is below a positive
// floor: the pairs dropped there would be missing from the list, or —
// through Row's fallback — read as 0.
func (m *RowSparse) Support(dst []Scored, v graph.NodeID, xi float64) ([]Scored, bool) {
	if m.floor > 0 && xi < m.floor {
		panic(fmt.Sprintf("simmatrix: support at ξ = %v of a matrix built at ξ = %v", xi, m.floor))
	}
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
