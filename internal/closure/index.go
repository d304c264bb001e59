package closure

import (
	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// This file defines the reachability index the matcher consumes. The
// trim of Fig. 4 (line 4) consults the adjacency matrix H2 of G2+, and
// Appendix B observes that the SCC-condensed closure G2* is enough to
// answer it: nodes in one strongly connected component reach exactly
// the same nodes. Reach already stores that form — component rows over
// k components plus the per-node component assignment — so CompIndex
// answers every query straight from it: an O(1) two-array probe per
// candidate and no memory of its own. A catalog entry costs the
// O(n₂ + k²) bits of its Reach, never O(n₂²), which is what lets phomd
// register ≥100k-node graphs.
//
// The dense per-node rows of rows.go answer the same queries and are
// kept only as the reference the tier-equivalence tests compare against.

// Index answers the reachability queries the matching algorithms
// consume: point lookups and the candidate-set trim split of
// greedyMatch. Implementations are immutable once built and safe for
// concurrent readers.
type Index interface {
	// NumNodes reports the number of data-graph nodes covered.
	NumNodes() int
	// Reachable reports whether a nonempty path u ⇝ v exists.
	Reachable(u, v graph.NodeID) bool
	// Split partitions cand against the trim constraints at pivot u:
	// kept receives the candidates w satisfying every requested
	// condition (needBwd: w ⇝ u; needFwd: u ⇝ w), moved the rest. kept
	// and moved are fully overwritten (they may carry stale bits from a
	// free list) and must be distinct from cand. At least one of
	// needBwd/needFwd must be set. The returns report non-emptiness of
	// kept and moved so callers avoid a separate scan.
	Split(cand *bitset.Set, u graph.NodeID, needBwd, needFwd bool, kept, moved *bitset.Set) (anyKept, anyMoved bool)
}

// CompIndex answers every query directly from the SCC-condensed Reach
// index, never materialising node-level rows. A reachability probe is
// two array loads and one bit test (comp[w] into the component row of
// comp[u]); the trim iterates the candidate set's members instead of
// And-ing full-width rows, which is the right shape once the ξ-filter
// has left each pattern node with few candidates.
type CompIndex struct {
	r *Reach
}

// NewCompIndex wraps a Reach index as an Index. Construction is O(1)
// and allocates nothing beyond the wrapper: every structure it consults
// already lives in the Reach.
func NewCompIndex(r *Reach) *CompIndex { return &CompIndex{r: r} }

// Reach returns the closure the index reads through.
func (ci *CompIndex) Reach() *Reach { return ci.r }

// NumNodes reports the number of nodes the index covers.
func (ci *CompIndex) NumNodes() int { return ci.r.n }

// Reachable reports whether a nonempty path u ⇝ v exists.
func (ci *CompIndex) Reachable(u, v graph.NodeID) bool { return ci.r.Reachable(u, v) }

// Split partitions cand by probing the component rows once per
// candidate: O(|cand|) probes plus the clear of the two output sets.
func (ci *CompIndex) Split(cand *bitset.Set, u graph.NodeID, needBwd, needFwd bool, kept, moved *bitset.Set) (anyKept, anyMoved bool) {
	kept.Clear()
	moved.Clear()
	r := ci.r
	cu := r.comp[u]
	fwdRow := r.compReach[cu] // components reachable from u
	for w := cand.Next(0); w >= 0; w = cand.Next(w + 1) {
		cw := r.comp[w]
		ok := true
		if needBwd && !r.compReach[cw].Contains(cu) {
			ok = false
		}
		if ok && needFwd && !fwdRow.Contains(cw) {
			ok = false
		}
		if ok {
			kept.Add(w)
			anyKept = true
		} else {
			moved.Add(w)
			anyMoved = true
		}
	}
	return anyKept, anyMoved
}
