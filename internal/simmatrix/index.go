package simmatrix

import (
	"cmp"
	"fmt"
	"math/bits"
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
// ascending node posting packed beside it, every node's set size, and
// the nodes whose set is empty — which resemble exactly the empty
// pattern sets, fully, and so appear in no posting. A directory over the
// keys' top bits finds a shingle in one read and a search inside its
// bucket. It is immutable once built.
type ContentIndex struct {
	keys  []uint64       // distinct shingles, ascending
	post  []uint64       // per key, its posting packed (see shingleNodes)
	nodes []graph.NodeID // every posting of two nodes or more, each ascending
	sizes []int32        // per node, distinct shingles
	empty []graph.NodeID
	dir   []int32 // the keys h with h>>shift == b are keys[dir[b]:dir[b+1]]
	shift uint
}

// NewContentIndex shingles every node of g with the given window
// (non-positive selects shingle.DefaultSize) into its candidate index,
// by shingleNodes' flat passes.
func NewContentIndex(g *graph.Graph, shingleSize int) *ContentIndex {
	keys, post, nodes, sizes := shingleNodes(g, shingleSize)
	ix := &ContentIndex{keys: keys, post: post, nodes: slices.Clone(nodes), sizes: sizes}
	ix.dir, ix.shift = directory(keys)
	for u, size := range sizes {
		if size == 0 {
			ix.empty = append(ix.empty, graph.NodeID(u))
		}
	}
	return ix
}

// directory cuts keys, ascending, into 2^⌈log2 n⌉ buckets by their top
// bits, so a bucket holds about one key when the hashes spread evenly:
// dir[b] is the first key whose top bits are ≥ b, and dir[len(dir)-1]
// is len(keys). With one key or none every key falls in the one bucket
// (shift 64 leaves no bits). It costs at most 8 B per key.
func directory(keys []uint64) (dir []int32, shift uint) {
	top := bits.Len(uint(max(len(keys), 1) - 1))
	shift = uint(64 - top)
	dir = make([]int32, 1<<top+1)
	k := 0
	for b := range 1 << top {
		for k < len(keys) && keys[k]>>shift < uint64(b) {
			k++
		}
		dir[b] = int32(k)
	}
	dir[1<<top] = int32(len(keys))
	return dir, shift
}

// shingleNodes is the one shingling of a graph's nodes (content, falling
// back to the label), which both a data graph's index and a prepared
// pattern are read from: the distinct shingles in ascending order, the
// posting of keys[k] packed in post[k], and per node its count of
// distinct shingles. A posting of one node — most shingles' on a Web
// page — packs as 1<<32 | that node; a longer one as length<<32 |
// start, its ascending nodes being nodes[start:start+length]. So one
// read beside the key tells a reader the posting's length, and a
// posting of one node its node too.
//
// It works in flat passes, with no map and no comparator: every node's
// window hashes, duplicates included, go into one array beside the id
// of their node; a stable radix sort orders them by hash, and since
// nodes were appended in ascending order every posting comes out
// ascending; one scan then emits the keys, packs the postings, drops a
// node's repeated shingle and counts each node's distinct ones. nodes is
// cut from a scratch array sized for every window, duplicates included.
func shingleNodes(g *graph.Graph, shingleSize int) (keys, post []uint64, nodes []graph.NodeID, sizes []int32) {
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
	keys, post = make([]uint64, 0, distinct), make([]uint64, 0, distinct)
	// The postings are written over ids in place: an entry is written
	// no later than it is read. The last key's posting is ids[from:end]
	// until the next key packs it, taking back a one-node posting's slot.
	from, end := 0, 0
	pack := func() {
		if end-from == 1 {
			post = append(post, 1<<32|uint64(ids[from]))
			end = from
		} else {
			post = append(post, uint64(end-from)<<32|uint64(from))
		}
	}
	for i, h := range hs {
		u := ids[i]
		if i > 0 && h == hs[i-1] {
			if u == ids[i-1] {
				continue // the node's repeated shingle
			}
		} else {
			if i > 0 {
				pack()
			}
			keys = append(keys, h)
			from = end
		}
		ids[end] = u
		end++
		sizes[u]++
	}
	if len(hs) > 0 {
		pack()
	}
	return keys, post, ids[:end], sizes
}

// sortByHash orders hs by value, and ids along with it, stably. One pass
// on the top byte and an insertion sort do it when the pairs of hashes
// sharing a top byte — a bound on the insertion sort's moves, which stay
// inside their byte's run — number at most 8 per hash: a search
// pattern's few hundred windows (≈ 4 per hash on webgen skeletons of 8
// to 16 pages). Otherwise (a data graph's thousands of windows, or
// crafted hashes sharing their top byte) an LSD radix sort over 8-bit
// digits does, skipping every digit all hashes share. It returns the
// sorted pair, which may be scratch arrays rather than the ones passed
// in.
func sortByHash(hs []uint64, ids []graph.NodeID) ([]uint64, []graph.NodeID) {
	if len(hs) < 2 {
		return hs, ids
	}
	hs2, ids2 := make([]uint64, len(hs)), make([]graph.NodeID, len(ids))
	var top [256]int
	for _, h := range hs {
		top[h>>56]++
	}
	pairs := 0
	for _, c := range top {
		pairs += c * (c - 1) / 2
	}
	if pairs <= 8*len(hs) {
		sum := 0
		for b, c := range top {
			top[b] = sum
			sum += c
		}
		for i, h := range hs {
			j := &top[h>>56]
			hs2[*j], ids2[*j] = h, ids[i]
			*j++
		}
		for i := 1; i < len(hs2); i++ {
			h, u, j := hs2[i], ids2[i], i
			for ; j > 0 && hs2[j-1] > h; j-- {
				hs2[j], ids2[j] = hs2[j-1], ids2[j-1]
			}
			hs2[j], ids2[j] = h, u
		}
		return hs2, ids2
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
	return 8*int64(len(ix.keys)) + 8*int64(len(ix.post)) + 4*int64(len(ix.nodes)) + 4*int64(len(ix.sizes)) + 4*int64(len(ix.empty)) + 4*int64(len(ix.dir))
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
	keys, post, nodes, sizes := shingleNodes(g, shingleSize)
	p := &ContentPattern{keys: keys, offs: make([]int, len(sizes)+1)}
	// While the postings are read, offs[v+1] is where node v's next
	// position goes: it starts at v's first and ends past its last.
	for v := 1; v < len(sizes); v++ {
		p.offs[v+1] = p.offs[v] + int(sizes[v-1])
	}
	if n := len(sizes); n > 0 {
		p.at = make([]int32, p.offs[n]+int(sizes[n-1]))
	}
	place := func(v graph.NodeID, k int) {
		p.at[p.offs[v+1]] = int32(k)
		p.offs[v+1]++
	}
	for k, o := range post {
		if o>>32 == 1 {
			place(graph.NodeID(uint32(o)), k)
			continue
		}
		for _, v := range nodes[uint32(o) : uint32(o)+uint32(o>>32)] {
			place(v, k)
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
// overshoot (0.28·25 = 7.000000000000001) and drop admissible pairs. The
// walk starts one below ⌊xi·a⌋, clamped to a+1, which is never past the
// answer: the float product is within a few ulps of the real one.
func minOverlap(a int, xi float64) int {
	n := 0
	if e := xi * float64(a); e >= 2 {
		n = int(min(e, float64(a+2))) - 1
	}
	for n <= a && float64(n)/float64(a) < xi {
		n++
	}
	return n
}

// leastOverlap is the smallest overlap n ≤ min(a, b) at which sets of a
// and b shingles resemble at least xi, n/(a+b−n) divided as the score
// divides it, or min(a, b)+1 when none does; xiShare is xi/(1+xi). The
// resemblance only grows with n, so a pair scores ≥ xi exactly when its
// overlap reaches this. The walk starts one below ⌊xiShare·(a+b)⌋, the
// real solution of n/(a+b−n) = xi less the float error, so it takes a
// division or two.
func leastOverlap(a, b int, xi, xiShare float64) int {
	if xi <= 0 {
		return 0 // the full build's every pair, with no division
	}
	most := min(a, b)
	n := 0
	if e := xiShare * float64(a+b); e >= 2 {
		n = int(min(e, float64(most+2))) - 1
	}
	for n <= most && float64(n)/float64(a+b-n) < xi {
		n++
	}
	return n
}

// quickselect reorders xs so that xs[:k] holds its k smallest: partition
// around the median of the first, middle and last values, keep the side
// holding the k-th, repeat. After 2·log2 len(xs) rounds it sorts what is
// left, so no input costs more than a sort.
func quickselect(xs []uint64, k int) {
	for rounds := 2 * bits.Len(uint(len(xs))); k > 0 && k < len(xs); rounds-- {
		if rounds == 0 {
			slices.Sort(xs)
			return
		}
		last := len(xs) - 1
		m := len(xs) / 2
		if xs[0] > xs[m] {
			xs[0], xs[m] = xs[m], xs[0]
		}
		if xs[m] > xs[last] {
			xs[m], xs[last] = xs[last], xs[m]
			if xs[0] > xs[m] {
				xs[0], xs[m] = xs[m], xs[0]
			}
		}
		xs[m], xs[last] = xs[last], xs[m] // the median is the pivot, parked last
		pivot, i := xs[last], 0
		for j, x := range xs[:last] {
			if x < pivot {
				xs[i], xs[j] = x, xs[i]
				i++
			}
		}
		xs[i], xs[last] = pivot, xs[i] // xs[:i] < xs[i] = pivot < xs[i+1:]
		if k <= i {
			xs = xs[:i]
		} else {
			xs, k = xs[i+1:], k-i-1
		}
	}
}

// b2i is 1 for true and 0 for false; the compiler reads the flag into
// a register rather than branching.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// matrixScratch is what one Matrix call works in, pooled because a
// search builds a matrix for each of its candidate graphs.
type matrixScratch struct {
	post    []uint64       // per pattern shingle, its posting in the graph packed by resolve, or 0
	present []uint64       // the current node's postings, packed as in post
	count   []int32        // per data node, probed postings listing it; zero between nodes
	touched []graph.NodeID // the data nodes count is nonzero for
	ends    []int          // per pattern node, where its row ends in the matrix's one array
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
// probe walks m−t+1 short ones: one-node postings first, then the
// shortest longer ones by a quickselect, and postings that list every
// node (a template's shingle on every page) only if nothing else is
// left. Every node the probe lists is then verified in the other t−1 —
// one comparison for a one-node posting, none for an every-node one, a
// binary search otherwise — until its misses exceed what its least
// overlap (leastOverlap) allows, and scored exactly. At xi ≤ 0, t = 0
// and every present posting is walked — the full build, with no second
// code path; at xi > 1 every row is empty.
func (ix *ContentIndex) Matrix(p *ContentPattern, xi float64) *RowSparse {
	s := scratchPool.Get().(*matrixScratch)
	defer scratchPool.Put(s)
	n2 := len(ix.sizes)
	if cap(s.count) < n2 {
		s.count = make([]int32, n2)
	}
	count := s.count[:n2]
	s.post = ix.resolve(s.post[:0], p.keys)
	xiShare := xi / (1 + xi)

	// Rows end where ends says, in one array sized for a match per row,
	// about what a search's stage 2 finds; ends is scratch, as CutRows
	// copies what it needs.
	n1 := p.NumNodes()
	ends := slices.Grow(s.ends[:0], n1)[:n1]
	s.ends = ends
	all := make([]Scored, 0, n1)
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
		// v's postings in the graph, the one-node ones first; those that
		// list every node are only counted. Each posting is written at
		// both ends, one-node ones claiming the front and longer ones the
		// back, and counted by flags, with no branch on its kind: from
		// one build to the next the kinds follow no pattern a predictor
		// can learn (BenchmarkContentMatrixFleet reads ≈ 19 % less than
		// with a switch).
		present := slices.Grow(s.present[:0], a)[:a]
		ones, longer, full := 0, 0, 0
		for _, k := range at {
			o := s.post[k]
			present[ones], present[a-1-longer] = o, o
			one := b2i(o>>32 == 1)
			every := b2i(o>>32 == uint64(n2)) &^ one
			ones += one
			longer += b2i(o>>32 > 1) &^ every
			full += every
		}
		copy(present[ones:], present[a-longer:])
		present = present[:ones+longer]
		s.present = present
		t := minOverlap(a, xi)
		m := len(present) + full
		if t > m {
			ends[v] = len(all)
			continue
		}
		// The probe: any m−t+1 postings (all m at t = 0), the shortest
		// picked, every-node ones only past the end of present.
		cut := m - max(t, 1) + 1
		if cut > ones && cut < len(present) {
			quickselect(present[ones:], cut-ones)
		}
		probe := present[:min(cut, len(present))]
		rest, fullLeft := present[len(probe):], full
		touched := s.touched[:0]
		if probed := cut - len(probe); probed > 0 {
			fullLeft -= probed
			for u := range n2 {
				touched = append(touched, graph.NodeID(u))
				count[u] = int32(probed)
			}
		}
		tally := func(u graph.NodeID) {
			if count[u] == 0 {
				touched = append(touched, u)
			}
			count[u]++
		}
		for _, o := range probe {
			if o>>32 == 1 {
				tally(graph.NodeID(uint32(o)))
				continue
			}
			for _, u := range ix.posting(o) {
				tally(u)
			}
		}
		s.touched = touched
		score := func(u graph.NodeID) {
			n, b := int(count[u])+fullLeft, int(ix.sizes[u])
			count[u] = 0
			// The pair reaches xi exactly when its overlap reaches need:
			// slack is how many of the postings left may miss u.
			need := leastOverlap(a, b, xi, xiShare)
			slack := n + len(rest) - need
			if need > b || slack < 0 {
				return
			}
			for _, o := range rest {
				if ix.lists(o, u) {
					n++
				} else if slack--; slack < 0 {
					return
				}
			}
			if r := float64(n) / float64(a+b-n); r >= xi { // false only for a NaN xi
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

// posting returns the nodes of a packed posting of two nodes or more.
func (ix *ContentIndex) posting(o uint64) []graph.NodeID {
	from := int(uint32(o))
	return ix.nodes[from : from+int(o>>32)]
}

// lists reports whether the packed posting o lists u: one comparison
// for a posting of one node, which the packing holds itself, otherwise
// a binary search whose steps choose their half by a mask, not a branch,
// since which half holds u is as good as random to a branch predictor.
func (ix *ContentIndex) lists(o uint64, u graph.NodeID) bool {
	base, n := int(uint32(o)), int(o>>32)
	if n == 1 {
		return graph.NodeID(base) == u
	}
	for n > 1 {
		half := n >> 1
		// int64(u)-… is negative exactly when the probe lies past u.
		base += half &^ int((int64(u)-int64(ix.nodes[base+half]))>>63)
		n -= half
	}
	return ix.nodes[base] == u
}

// resolve appends to post, for every key of keys, its packed posting in
// the graph (see shingleNodes), or 0 when the graph has no such shingle
// (no posting is empty): one directory read for the key's bucket, then
// a binary search inside it, so a bucket that crafted hashes crowd costs
// a logarithm, not a scan. Its steps choose by a mask, as lists' do.
func (ix *ContentIndex) resolve(post []uint64, keys []uint64) []uint64 {
	for _, h := range keys {
		b := h >> ix.shift
		base, n := int(ix.dir[b]), int(ix.dir[b+1]-ix.dir[b])
		for n > 1 {
			half := n >> 1
			_, past := bits.Sub64(h, ix.keys[base+half], 0) // 1 when the probe lies past h
			base += half & (int(past) - 1)
			n -= half
		}
		var o uint64
		if n == 1 && ix.keys[base] == h {
			o = ix.post[base]
		}
		post = append(post, o)
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
