package closure

import (
	"fmt"
	"sync"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// This file defines the tiered reachability layer. The matcher's trim
// (Fig. 4 line 4) and the decision pre-filter both consult the
// adjacency matrix H2 of G2+, but how that matrix is represented is a
// memory/throughput trade-off:
//
//   - TierDense materialises per-node closure rows (closure.Rows) —
//     word-level And sweeps, O(n₂²) bits in the worst case. Fast, and
//     fine while graphs are small.
//
//   - TierSparse answers every query straight from the SCC-condensed
//     Reach index (component rows over k components plus the per-node
//     component assignment, the Appendix B representation): an O(1)
//     two-array probe per candidate, O(k²) bits total. On a data graph
//     whose condensation is small — the shape real web/social graphs
//     take, one giant strongly connected core plus a fringe — this
//     removes the quadratic-in-n₂ memory term entirely, which is what
//     lets phomd register ≥100k-node graphs.
//
// Both tiers answer the same queries through the Index interface, and
// the candidate-sparse trim is exact (TestTierEquivalence pins that
// every approximation algorithm returns bit-identical mappings under
// either tier); only the constant factors differ.

// Tier names a reachability representation.
type Tier string

const (
	// TierDense is the materialised per-node closure rows of
	// closure.Rows.
	TierDense Tier = "dense"
	// TierSparse is the candidate-sparse component-probe representation
	// of CompIndex.
	TierSparse Tier = "sparse"
)

// Index answers the reachability queries the matching algorithms
// consume: point lookups, fan counts for the decision pre-filter, and
// the candidate-set trim split of greedyMatch. Implementations are
// immutable once built and safe for concurrent readers.
type Index interface {
	// NumNodes reports the number of data-graph nodes covered.
	NumNodes() int
	// Tier identifies the representation.
	Tier() Tier
	// Reachable reports whether a nonempty path u ⇝ v exists.
	Reachable(u, v graph.NodeID) bool
	// FanOut reports |{w : u ⇝ w}|, the number of nodes reachable from
	// u by a nonempty path.
	FanOut(u graph.NodeID) int
	// FanIn reports |{w : w ⇝ u}|.
	FanIn(u graph.NodeID) int
	// Split partitions cand against the trim constraints at pivot u:
	// kept receives the candidates w satisfying every requested
	// condition (needBwd: w ⇝ u; needFwd: u ⇝ w), moved the rest. kept
	// and moved are fully overwritten (they may carry stale bits from a
	// free list) and must be distinct from cand. At least one of
	// needBwd/needFwd must be set. The returns report non-emptiness of
	// kept and moved so callers avoid a separate scan.
	Split(cand *bitset.Set, u graph.NodeID, needBwd, needFwd bool, kept, moved *bitset.Set) (anyKept, anyMoved bool)
	// Bytes approximates the heap bytes held by the index beyond what
	// the underlying Reach already accounts for (cache accounting).
	Bytes() int
}

// Rows implements Index as the dense tier.

// Tier identifies Rows as the dense tier.
func (rw *Rows) Tier() Tier { return TierDense }

// Reachable reports whether a nonempty path u ⇝ v exists.
func (rw *Rows) Reachable(u, v graph.NodeID) bool { return rw.Fwd(u).Contains(int(v)) }

// FanOut reports the number of nodes reachable from u, as a word-level
// population count of u's forward row.
func (rw *Rows) FanOut(u graph.NodeID) int { return rw.Fwd(u).Count() }

// FanIn reports the number of nodes that reach u.
func (rw *Rows) FanIn(u graph.NodeID) int { return rw.Bwd(u).Count() }

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

// CompIndex is the candidate-sparse tier: it answers every query
// directly from the SCC-condensed Reach index, never materialising
// node-level rows. A reachability probe is two array loads and one bit
// test (comp[w] into the component row of comp[u]); the trim iterates
// the candidate set's members instead of And-ing full-width rows, which
// is the right shape once the ξ-filter has left each pattern node with
// few candidates. Memory beyond the Reach index itself is O(k) — the
// lazily built per-component fan counts — so a catalog entry costs
// O(n₂ + k²) bits instead of O(n₂²).
type CompIndex struct {
	r *Reach

	// Fan counts aggregate component sizes over the component-level
	// closure; they are only needed by the decision pre-filter, so the
	// O(closure-bits) aggregation pass is deferred to first use.
	fanOnce sync.Once
	fanOut  []int32 // fanOut[c] = Σ size(d) over d ∈ compReach[c]
	fanIn   []int32 // fanIn[d] = Σ size(c) over c with d ∈ compReach[c]
}

// NewCompIndex wraps a Reach index as a candidate-sparse Index.
// Construction is O(1): every structure it consults already lives in
// the Reach.
func NewCompIndex(r *Reach) *CompIndex { return &CompIndex{r: r} }

// NumNodes reports the number of nodes the index covers.
func (ci *CompIndex) NumNodes() int { return ci.r.n }

// Tier identifies CompIndex as the sparse tier.
func (ci *CompIndex) Tier() Tier { return TierSparse }

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

// FanOut reports the number of nodes reachable from u by aggregating
// member counts over u's component row.
func (ci *CompIndex) FanOut(u graph.NodeID) int {
	ci.buildFans()
	return int(ci.fanOut[ci.r.comp[u]])
}

// FanIn reports the number of nodes that reach u.
func (ci *CompIndex) FanIn(u graph.NodeID) int {
	ci.buildFans()
	return int(ci.fanIn[ci.r.comp[u]])
}

// buildFans aggregates component sizes over the component-level
// closure in one pass over its set bits. Deferred to first use because
// only the decision pre-filter consumes fan counts; the approximation
// hot path never pays for it.
func (ci *CompIndex) buildFans() {
	ci.fanOnce.Do(func() {
		r := ci.r
		k := len(r.compReach)
		size := make([]int32, k)
		for _, c := range r.comp {
			size[c]++
		}
		fanOut := make([]int32, k)
		fanIn := make([]int32, k)
		for c := 0; c < k; c++ {
			row := r.compReach[c]
			var total int32
			for d := row.Next(0); d >= 0; d = row.Next(d + 1) {
				total += size[d]
				fanIn[d] += size[c]
			}
			fanOut[c] = total
		}
		ci.fanOut, ci.fanIn = fanOut, fanIn
	})
}

// Bytes approximates the heap held beyond the Reach index: the two fan
// arrays (reported whether or not they are built yet, so cache
// accounting does not shift after a decide request).
func (ci *CompIndex) Bytes() int { return 2 * 4 * len(ci.r.compReach) }

// ProjectedRowsBytes reports what NewRows would allocate for r without
// building anything — the quantity tier selection weighs against
// DefaultDenseMaxBytes, and the "dense projection" the large-graph
// benchmark compares resident memory to.
func ProjectedRowsBytes(r *Reach) int {
	return rowsBytes(r.n, len(r.compReach), identityComp(r))
}

// TierPolicy selects how an Index is built from a Reach.
type TierPolicy string

const (
	// PolicyAuto picks the dense tier while its projected size fits the
	// configured budget and the sparse tier beyond it.
	PolicyAuto TierPolicy = "auto"
	// PolicyDense forces materialised rows regardless of size.
	PolicyDense TierPolicy = "dense"
	// PolicySparse forces the candidate-sparse tier.
	PolicySparse TierPolicy = "sparse"
)

// ParseTierPolicy validates a wire/flag tier policy; empty means auto.
func ParseTierPolicy(s string) (TierPolicy, error) {
	switch p := TierPolicy(s); p {
	case "":
		return PolicyAuto, nil
	case PolicyAuto, PolicyDense, PolicySparse:
		return p, nil
	default:
		return "", fmt.Errorf("closure: unknown tier policy %q (want auto, dense or sparse)", s)
	}
}

// DefaultDenseMaxBytes is the auto-tier threshold: a graph whose
// projected dense rows stay under it gets TierDense, anything larger
// gets TierSparse. 64 MiB keeps every graph up to roughly 10–15k nodes
// on the fast dense path while guaranteeing one registered graph can
// never demand gigabytes of row matrices.
const DefaultDenseMaxBytes = 64 << 20

// BuildIndex materialises an Index over r under the given policy.
// A non-positive denseMaxBytes means DefaultDenseMaxBytes.
func BuildIndex(r *Reach, policy TierPolicy, denseMaxBytes int) Index {
	if denseMaxBytes <= 0 {
		denseMaxBytes = DefaultDenseMaxBytes
	}
	switch policy {
	case PolicyDense:
		return NewRows(r)
	case PolicySparse:
		return NewCompIndex(r)
	default:
		if ProjectedRowsBytes(r) <= denseMaxBytes {
			return NewRows(r)
		}
		return NewCompIndex(r)
	}
}

// AutoIndex is BuildIndex under the default policy and threshold — the
// representation an Instance derives on its own when no catalog injects
// a shared one.
func AutoIndex(r *Reach) Index { return BuildIndex(r, PolicyAuto, DefaultDenseMaxBytes) }
