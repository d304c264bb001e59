package closure

import (
	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// Rows materialises a Reach index as dense bitset rows over node IDs in
// both directions: Fwd(u) is {w : u ⇝ w} and Bwd(u) is {w : w ⇝ u},
// each as a word-level bitset ready for And/AndNot sweeps — O(n₂²) bits
// in the worst case. No server path builds it: the catalog, the engine
// and core.Instance all probe the SCC-condensed closure through
// CompIndex (index.go). Rows is the dense *reference* that the
// tier-equivalence tests and the benchmark's dense re-time compare
// CompIndex against; it answers the same Index queries by word-level
// trims.
//
// Nodes in the same SCC have identical closure rows, so Rows keeps one
// row per component and reads a node's row through the Reach index's
// component assignment; when the Reach index already stores one
// singleton component per node in ID order (the ComputeBounded shape),
// the forward rows are the Reach rows themselves with no copying at all.
//
// Rows is immutable once built and safe for concurrent readers. The
// returned row sets are shared — callers must never mutate them.
type Rows struct {
	n    int
	comp []int         // node → component, the Reach index's own slice
	fwd  []*bitset.Set // fwd[c] = {w : nonempty path c ⇝ w}, per component
	bwd  []*bitset.Set // bwd[c] = {w : nonempty path w ⇝ c}
	// aliased marks fwd as the Reach index's own component rows (the
	// identity mapping), which Reach.Bytes already accounts for.
	aliased bool
}

// identityComp reports whether r stores one singleton component per
// node, in ID order — the shape ComputeBounded produces.
// There the component rows already are node rows.
func identityComp(r *Reach) bool {
	if len(r.compReach) != r.n {
		return false
	}
	for v, c := range r.comp {
		if c != v {
			return false
		}
	}
	return true
}

// rowsBytes is what a Rows over n nodes in k components holds beyond its
// Reach index: the rows it does not alias plus the two row tables.
func rowsBytes(n, k int, aliased bool) int {
	rows := 2 * k
	if aliased {
		rows = k
	}
	return rows*8*((n+63)/64) + 2*k*8
}

// NewRows expands a Reach index into forward and backward closure rows.
// The expansion is word-level where components have several members
// (member bitsets OR-combined along the component-level closure) and a
// per-bit relabel where every component is a singleton — O(reachable
// pairs) either way, never worse.
func NewRows(r *Reach) *Rows {
	n := r.n
	k := len(r.compReach)
	rw := &Rows{n: n, comp: r.comp, aliased: identityComp(r)}

	// Component-level transpose: compBwd[d] = {c : d ∈ compReach[c]}.
	compBwd := make([]*bitset.Set, k)
	for d := range compBwd {
		compBwd[d] = bitset.New(k)
	}
	for c := 0; c < k; c++ {
		row := r.compReach[c]
		for d := row.Next(0); d >= 0; d = row.Next(d + 1) {
			compBwd[d].Add(c)
		}
	}

	switch {
	case rw.aliased:
		rw.fwd = r.compReach
		rw.bwd = compBwd
	case k == n:
		// Acyclic graph whose SCC pass numbered the (all singleton)
		// components out of ID order. Expanding a component row is then
		// a bit relabel through the inverse permutation — O(reachable
		// pairs) total, where the general member-OR expansion below
		// would pay O(n/64) words per reachable pair and dominate the
		// dense-tier build on long DAGs.
		member := make([]int, k)
		for v, c := range r.comp {
			member[c] = v
		}
		translate := func(compRows []*bitset.Set) []*bitset.Set {
			out := make([]*bitset.Set, k)
			for c := 0; c < k; c++ {
				row := bitset.New(n)
				cr := compRows[c]
				for d := cr.Next(0); d >= 0; d = cr.Next(d + 1) {
					row.Add(member[d])
				}
				out[c] = row
			}
			return out
		}
		rw.fwd = translate(r.compReach)
		rw.bwd = translate(compBwd)
	default:
		// members[c] = bitset of the nodes in component c; expanding a
		// component row is then a word-level OR of member bitsets.
		members := make([]*bitset.Set, k)
		for c := range members {
			members[c] = bitset.New(n)
		}
		for v, c := range r.comp {
			members[c].Add(v)
		}
		expand := func(compRows []*bitset.Set) []*bitset.Set {
			out := make([]*bitset.Set, k)
			for c := 0; c < k; c++ {
				row := bitset.New(n)
				cr := compRows[c]
				for d := cr.Next(0); d >= 0; d = cr.Next(d + 1) {
					row.Or(members[d])
				}
				out[c] = row
			}
			return out
		}
		rw.fwd = expand(r.compReach)
		rw.bwd = expand(compBwd)
	}
	return rw
}

// NumNodes reports the number of nodes the rows cover.
func (rw *Rows) NumNodes() int { return rw.n }

// Fwd returns the forward closure row of u: {w : u ⇝ w}. Shared and
// immutable — do not modify.
func (rw *Rows) Fwd(u graph.NodeID) *bitset.Set { return rw.fwd[rw.comp[u]] }

// Bwd returns the backward closure row of u: {w : w ⇝ u}. Shared and
// immutable — do not modify.
func (rw *Rows) Bwd(u graph.NodeID) *bitset.Set { return rw.bwd[rw.comp[u]] }

// Bytes reports the heap bytes held by the rows beyond what the
// underlying Reach index already accounts for — a function of the shape
// alone.
func (rw *Rows) Bytes() int { return rowsBytes(rw.n, len(rw.bwd), rw.aliased) }

// Reachable reports whether a nonempty path u ⇝ v exists.
func (rw *Rows) Reachable(u, v graph.NodeID) bool { return rw.Fwd(u).Contains(int(v)) }

// Split is the word-level trim: one SplitInto pass against the masked
// closure rows of u.
func (rw *Rows) Split(cand *bitset.Set, u graph.NodeID, needBwd, needFwd bool, kept, moved *bitset.Set) (anyKept, anyMoved bool) {
	var a, b *bitset.Set
	c := rw.comp[u]
	if needBwd {
		a = rw.bwd[c]
	}
	if needFwd {
		if a == nil {
			a = rw.fwd[c]
		} else {
			b = rw.fwd[c]
		}
	}
	return cand.SplitInto(a, b, kept, moved)
}

// ProjectedRowsBytes reports what NewRows would allocate for r without
// building anything — the size BuildIndex weighs against its budget,
// and the "dense projection" the large-graph benchmark compares
// resident memory to.
func ProjectedRowsBytes(r *Reach) int {
	return rowsBytes(r.n, len(r.compReach), identityComp(r))
}

// TierPolicy names how BuildIndex picks between the dense reference and
// CompIndex. PolicyAuto is its only value.
type TierPolicy string

// PolicyAuto picks the dense reference while its projected size fits
// the budget and CompIndex beyond it.
const PolicyAuto TierPolicy = "auto"

// DefaultDenseMaxBytes is BuildIndex's default budget for the dense
// reference: 64 MiB, roughly graphs up to 10–15k nodes.
const DefaultDenseMaxBytes = 64 << 20

// BuildIndex returns the dense reference Rows over r when
// ProjectedRowsBytes(r) fits denseMaxBytes, and NewCompIndex(r)
// otherwise. The benchmark times the index build through it; no server
// path calls it. policy must be PolicyAuto; a non-positive
// denseMaxBytes means DefaultDenseMaxBytes.
func BuildIndex(r *Reach, policy TierPolicy, denseMaxBytes int) Index {
	if denseMaxBytes <= 0 {
		denseMaxBytes = DefaultDenseMaxBytes
	}
	if ProjectedRowsBytes(r) <= denseMaxBytes {
		return NewRows(r)
	}
	return NewCompIndex(r)
}
