package core

import (
	"slices"
	"sync"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Matcher scratch. greedyMatch recycles matching lists, candidate sets
// and pair buffers through free lists, so once they are warm its
// recursion does no heap allocation (TestGreedyMatchAllocationFree).
// Those free lists, and the buffers that matcher setup, compMaxSim's
// weight buckets and the augmentation pass fill once per request, live
// in one scratch that outlives the request: comp draws it from
// scratchPool and hands it back when the search ends, after the span
// has read the search stats, and also after a deadline abort.
//
// An abort unwinds the recursion mid flight. The lists it abandons keep
// their sets, which are simply not returned; what the free lists hold
// is unreferenced by construction, because an item is either on a free
// list or held by exactly one live list or frame, never both. sync.Pool
// drops idle scratch at garbage collection, so the memory it holds
// stays bounded by what in-flight requests use.
//
// A scratch serves requests of any shape. A set keeps its words and is
// re-cut to the request's |V2| when drawn, or dropped when they are too
// few; a set that receives Adds is cleared first, every other draw is
// overwritten whole (CopyFrom, Index.Split). A list re-cuts good to
// |V1| when drawn and is all-nil while on the free list.
type scratch struct {
	sets  []*bitset.Set // free sets over V2
	lists []*matchList  // free lists over V1
	pairs [][]Pair      // free σ / I result buffers

	adj     []*bitset.Set        // prevBits then postBits: 2·|V1| sets over V1
	order   [][]simmatrix.Scored // per pattern node, candidates by descending pair weight
	sorted  []simmatrix.Scored   // backing of the order rows that needed sorting
	buckets []*matchList         // compMaxSim's weight buckets
	image   []graph.NodeID       // the mapping under augmentation, by pattern node
	aug     []augCand            // the augmentation pass's candidate pairs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release hands the scratch back to scratchPool. It first drops the
// references into this request's candidate rows, so an idle scratch
// pins nothing of the request.
func (mx *matcher) release() {
	sc := mx.sc
	clear(sc.order)
	mx.sc, mx.order = nil, nil
	scratchPool.Put(sc)
}

// clearedSet returns s re-cut to n bits and cleared, or a new set when
// s is nil or too short.
func clearedSet(s *bitset.Set, n int) *bitset.Set {
	if s == nil || !s.Recut(n) {
		return bitset.New(n)
	}
	s.Clear()
	return s
}

// adjacency fills the pattern adjacency bitsets over V1: prev[v] holds
// v's in-neighbours, post[v] its out-neighbours.
func (sc *scratch) adjacency(g1 *graph.Graph) (prev, post []*bitset.Set) {
	n1 := g1.NumNodes()
	if len(sc.adj) < 2*n1 {
		sc.adj = append(sc.adj, make([]*bitset.Set, 2*n1-len(sc.adj))...)
	}
	prev, post = sc.adj[:n1], sc.adj[n1:2*n1]
	for v := range prev {
		pb := clearedSet(prev[v], n1)
		for _, p := range g1.Prev(graph.NodeID(v)) {
			pb.Add(int(p))
		}
		sb := clearedSet(post[v], n1)
		for _, s := range g1.Post(graph.NodeID(v)) {
			sb.Add(int(s))
		}
		prev[v], post[v] = pb, sb
	}
	return prev, post
}

// weightOrder lists each pattern node's candidates by descending pair
// weight w(v)·mat(v, u), ascending u among equals: a stable sort of the
// ascending-u candidate row. A row already in that order, as every row
// of a label-equality match with unit weights is, is used as it stands.
func (sc *scratch) weightOrder(g1 *graph.Graph, cands [][]simmatrix.Scored) [][]simmatrix.Scored {
	order, sorted := sc.order[:0], sc.sorted[:0]
	for v, row := range cands {
		wv := g1.Weight(graph.NodeID(v))
		heavierFirst := func(a, b simmatrix.Scored) int {
			switch wa, wb := wv*a.Score, wv*b.Score; {
			case wa > wb:
				return -1
			case wa < wb:
				return 1
			}
			return 0
		}
		if !slices.IsSortedFunc(row, heavierFirst) {
			// A later append may move sorted; the rows cut so far keep
			// pointing at the copy they were sorted in.
			start := len(sorted)
			sorted = append(sorted, row...)
			row = sorted[start:]
			slices.SortStableFunc(row, heavierFirst)
		}
		order = append(order, row)
	}
	sc.order, sc.sorted = order, sorted
	return order
}

// imageOf returns the scratch's per-pattern-node image buffer, n1 long
// and all graph.Invalid.
func (sc *scratch) imageOf(n1 int) []graph.NodeID {
	sc.image = slices.Grow(sc.image[:0], n1)[:n1]
	for v := range sc.image {
		sc.image[v] = graph.Invalid
	}
	return sc.image
}

// Free-list plumbing. A drawn set comes back dirty unless the caller
// clears it: every consumer either clears it before Adds or overwrites
// it whole.

func (mx *matcher) getSet() *bitset.Set {
	sc := mx.sc
	for n := len(sc.sets); n > 0; n-- {
		s := sc.sets[n-1]
		sc.sets = sc.sets[:n-1]
		if s.Recut(mx.n2) {
			return s
		}
	}
	return bitset.New(mx.n2)
}

func (mx *matcher) putSet(s *bitset.Set) { mx.sc.sets = append(mx.sc.sets, s) }

func (mx *matcher) getList() *matchList {
	sc := mx.sc
	n := len(sc.lists)
	if n == 0 {
		return newMatchList(mx.n1)
	}
	h := sc.lists[n-1]
	sc.lists = sc.lists[:n-1]
	if cap(h.good) >= mx.n1 {
		h.good = h.good[:mx.n1] // all-nil: putList cleared every entry it set
	} else {
		h.good = make([]*bitset.Set, mx.n1)
	}
	return h
}

// putList clears a list and returns it, and its owned sets, to the free
// lists. Rows shared with a parent list are left untouched.
func (mx *matcher) putList(h *matchList) {
	for _, v := range h.nodes {
		h.good[v] = nil
	}
	h.nodes = h.nodes[:0]
	for _, s := range h.owned {
		mx.putSet(s)
	}
	h.owned = h.owned[:0]
	mx.sc.lists = append(mx.sc.lists, h)
}

func (mx *matcher) getPairs() []Pair {
	sc := mx.sc
	if n := len(sc.pairs); n > 0 {
		ps := sc.pairs[n-1]
		sc.pairs = sc.pairs[:n-1]
		return ps
	}
	return make([]Pair, 0, 16)
}

// putPairs recycles a result buffer. nil-safe.
func (mx *matcher) putPairs(ps []Pair) {
	if ps == nil {
		return
	}
	mx.sc.pairs = append(mx.sc.pairs, ps[:0])
}

// appendPair appends to a result buffer, drawing a pooled buffer when
// the child returned none.
func (mx *matcher) appendPair(ps []Pair, p Pair) []Pair {
	if ps == nil {
		ps = mx.getPairs()
	}
	return append(ps, p)
}
