// Package core implements the paper's primary contribution: the
// p-homomorphism and 1-1 p-homomorphism matching notions (Section 3), the
// exact decision procedures (Section 4's NP membership), and the
// approximation algorithms compMaxCard, compMaxCard1−1, compMaxSim and
// compMaxSim1−1 of Section 5 (Figs. 3–4), together with the Appendix B
// optimisations. Each algorithm has one context-first entry point
// (CompMaxCardCtx, …, DecideCtx); callers without a deadline pass
// context.Background(). Theorem 5.1's product-graph solvers are not
// here: they live in internal/product, which the tests and the
// experiments use as a quality oracle and the server does not link.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Mapping is a (partial) node mapping σ from G1 to G2: dom(σ) ⊆ V1,
// σ(v) ∈ V2. All algorithms in this package return Mappings whose validity
// can be re-checked with Instance.CheckMapping.
type Mapping map[graph.NodeID]graph.NodeID

// Clone returns an independent copy.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	for v, u := range m {
		c[v] = u
	}
	return c
}

// Domain returns dom(σ) sorted by node ID.
func (m Mapping) Domain() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Injective reports whether σ maps distinct nodes to distinct nodes.
func (m Mapping) Injective() bool {
	seen := make(map[graph.NodeID]struct{}, len(m))
	for _, u := range m {
		if _, dup := seen[u]; dup {
			return false
		}
		seen[u] = struct{}{}
	}
	return true
}

// String renders the mapping deterministically for logs and tests.
func (m Mapping) String() string {
	dom := m.Domain()
	s := "{"
	for i, v := range dom {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d→%d", v, m[v])
	}
	return s + "}"
}

// Instance bundles one matching problem: pattern G1, data graph G2, the
// similarity matrix mat() and threshold ξ of Section 3.1. The transitive
// closure of G2 is computed lazily and cached; Instances are cheap to pass
// by pointer and safe for concurrent use after the first algorithm call.
type Instance struct {
	G1  *graph.Graph
	G2  *graph.Graph
	Mat simmatrix.Matrix
	Xi  float64

	// MaxPathLen, when positive, bounds the length of the data-graph
	// paths that pattern edges may map to — the fixed-length variant of
	// pattern matching (cf. [32] in the paper's related work). 1 demands
	// edge-to-edge images (similarity-relaxed homomorphism); 0 means
	// unbounded, the paper's default. Set it before the first algorithm
	// call.
	MaxPathLen int

	// ArbitraryPick replaces Fig. 4 line 2's max-|good| node selection
	// with "first node in list order" — an ablation that measures what
	// the heuristic contributes (DESIGN.md §1). The serving engine never
	// sets it. It is read when an algorithm starts.
	ArbitraryPick bool

	// mu guards lazy initialisation of reach, idx and cands. A mutex
	// rather than sync.Once: the build must be single-flight AND
	// Symmetric needs to peek at what is already cached without forcing
	// a build, which Once cannot offer race-free.
	mu    sync.Mutex
	reach *closure.Reach
	idx   closure.Index
	cands [][]simmatrix.Scored
}

// NewInstance builds an instance. Xi outside [0, 1] is clamped.
func NewInstance(g1, g2 *graph.Graph, mat simmatrix.Matrix, xi float64) *Instance {
	if xi < 0 {
		xi = 0
	}
	if xi > 1 {
		xi = 1
	}
	return &Instance{G1: g1, G2: g2, Mat: mat, Xi: xi}
}

// Reach returns the cached reachability index of G2: the full transitive
// closure by default (the adjacency matrix H2 of Fig. 3, lines 5–7), or
// the bounded index when MaxPathLen is set. Lazy initialisation is
// mutex-guarded and single-flight, so concurrent algorithm calls on a
// cold instance race neither on the build nor on the cache write.
func (in *Instance) Reach() *closure.Reach {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reachLocked()
}

func (in *Instance) reachLocked() *closure.Reach {
	if in.reach == nil {
		in.reach = closure.ComputeBounded(in.G2, in.MaxPathLen)
	}
	return in.reach
}

// SetReach installs a precomputed reachability index for G2, replacing
// the lazily computed private one. This is how the serving catalog
// (internal/catalog) shares one closure across every Instance matching
// against the same data graph instead of recomputing it per request.
// The index must have been built over this instance's G2 with the same
// MaxPathLen bound; violating that silently changes the matching
// semantics. Call it before the first algorithm invocation.
func (in *Instance) SetReach(r *closure.Reach) {
	in.mu.Lock()
	in.reach = r
	in.mu.Unlock()
}

// Index returns the cached reachability index of G2 that greedyMatch's
// trim consumes — the candidate-sparse probe of the SCC-condensed
// closure (closure.CompIndex) — wrapping Reach on first use. Like Reach,
// lazy initialisation is single-flight and the result is immutable and
// safe to share across concurrent algorithm calls.
func (in *Instance) Index() closure.Index {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.idx == nil {
		in.idx = closure.NewCompIndex(in.reachLocked())
	}
	return in.idx
}

// SetIndex installs a precomputed reachability index for G2, mirroring
// SetReach: the serving catalog wraps each cached closure once and
// every request-scoped Instance consumes the shared copy, making
// per-request matcher setup near-free. The index must derive from the
// same Reach that SetReach installs (the catalog guarantees this). Call
// it before the first algorithm invocation.
func (in *Instance) SetIndex(ix closure.Index) {
	in.mu.Lock()
	in.idx = ix
	in.mu.Unlock()
}

// Symmetric returns the instance that matches paths on both sides
// (Section 3.2, Remark): the pattern is replaced by its transitive
// closure G1+, so a pattern *path* v ⇝ v′ may map to a data path. The
// returned instance shares this instance's data graph, matrix, threshold
// and cached closure.
func (in *Instance) Symmetric() *Instance {
	g1plus := closure.Compute(in.G1).Graph(in.G1)
	in.mu.Lock()
	reach, idx := in.reach, in.idx // whatever is cached; no build forced
	in.mu.Unlock()
	return &Instance{
		G1: g1plus, G2: in.G2, Mat: in.Mat, Xi: in.Xi,
		MaxPathLen: in.MaxPathLen, ArbitraryPick: in.ArbitraryPick, reach: reach, idx: idx,
	}
}

// admissible reports whether v may map to u at all: mat(v, u) ≥ ξ.
func (in *Instance) admissible(v, u graph.NodeID) bool {
	return in.Mat.Score(v, u) >= in.Xi
}

// candidates returns, for every pattern node v, the data nodes it may
// map to — H[v].good of Fig. 3 line 4: every u with mat(v, u) ≥ ξ, and on
// a cycle of G2 when v has a self-loop (a pattern edge (v, v) needs a
// nonempty path from σ(v) to itself) — in ascending u, each with its
// score. The rows come from the matrix itself when it can list its
// support and from one pass over V2 otherwise (simmatrix.Row); every
// algorithm of this package starts from these lists, so none of them
// visits V1 × V2 on its own. Built on first use, then shared and
// read-only. Set Mat, Xi and MaxPathLen before the first call.
func (in *Instance) candidates() [][]simmatrix.Scored {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cands != nil {
		return in.cands
	}
	reach := in.reachLocked()
	n2 := in.G2.NumNodes()
	var all []simmatrix.Scored
	ends := make([]int, in.G1.NumNodes())
	for v := range ends {
		vv := graph.NodeID(v)
		start := len(all)
		all = simmatrix.Row(all, in.Mat, vv, n2, in.Xi)
		if in.G1.HasEdge(vv, vv) {
			kept := slices.DeleteFunc(all[start:], func(c simmatrix.Scored) bool { return !reach.Reachable(c.U, c.U) })
			all = all[:start+len(kept)]
		}
		ends[v] = len(all)
	}
	in.cands = simmatrix.CutRows(all, ends)
	return in.cands
}

// CheckMapping verifies that σ is a valid p-hom mapping from the subgraph
// of G1 induced by dom(σ) to G2 — the polynomial-time certificate check
// behind the NP upper bound of Theorem 4.1. With injective set it also
// demands a 1-1 mapping. It returns nil when σ is valid and a descriptive
// error otherwise.
func (in *Instance) CheckMapping(m Mapping, injective bool) error {
	reach := in.Reach()
	for v, u := range m {
		if int(v) < 0 || int(v) >= in.G1.NumNodes() {
			return fmt.Errorf("core: domain node %d outside G1", v)
		}
		if int(u) < 0 || int(u) >= in.G2.NumNodes() {
			return fmt.Errorf("core: image node %d outside G2", u)
		}
		if !in.admissible(v, u) {
			return fmt.Errorf("core: pair (%d,%d) has mat %.3f < ξ %.3f", v, u, in.Mat.Score(v, u), in.Xi)
		}
	}
	if injective && !m.Injective() {
		return fmt.Errorf("core: mapping is not injective")
	}
	// Edge-to-path condition over edges internal to dom(σ).
	for v, u := range m {
		for _, v2 := range in.G1.Post(v) {
			u2, ok := m[v2]
			if !ok {
				continue
			}
			if !reach.Reachable(u, u2) {
				return fmt.Errorf("core: edge (%d,%d) of G1 maps to (%d,%d) with no nonempty path in G2", v, v2, u, u2)
			}
		}
	}
	return nil
}

// QualCard is the maximum-cardinality metric of Section 3.3:
// qualCard(σ) = |dom(σ)| / |V1|. An empty G1 scores 1 by convention.
func (in *Instance) QualCard(m Mapping) float64 {
	n := in.G1.NumNodes()
	if n == 0 {
		return 1
	}
	return float64(len(m)) / float64(n)
}

// QualSim is the maximum-overall-similarity metric of Section 3.3:
// qualSim(σ) = Σ_{v ∈ dom σ} w(v)·mat(v, σ(v)) / Σ_{v ∈ V1} w(v).
// The numerator accumulates in node-ID order, not map order: float
// addition is not associative, and compMaxSim selects bucket winners by
// comparing qualSim values, so an iteration-order-dependent ulp would
// make the returned mapping differ run to run.
func (in *Instance) QualSim(m Mapping) float64 {
	total := 0.0
	for v := 0; v < in.G1.NumNodes(); v++ {
		total += in.G1.Weight(graph.NodeID(v))
	}
	if total == 0 {
		return 1
	}
	got := 0.0
	for v := 0; v < in.G1.NumNodes(); v++ {
		vv := graph.NodeID(v)
		if u, ok := m[vv]; ok {
			got += in.G1.Weight(vv) * in.Mat.Score(vv, u)
		}
	}
	return got / total
}

// QualityBound bounds qualCard and qualSim over every mapping from g1 at
// threshold xi (clamped as NewInstance clamps it), whatever algorithm
// produced it. ub[v] must be at least mat(v, u) for every data node u.
// Only a node with ub[v] ≥ ξ can be mapped, and it adds at most
// w(v)·ub[v], so
//
//	card = |{v : ub[v] ≥ ξ}| / |V1|
//	sim  = Σ_{ub[v] ≥ ξ} w(v)·ub[v] / Σ_v w(v)
//
// The sums run in node-ID order, as QualSim's do. Float addition and
// multiplication are monotone in each non-negative operand, and the
// bound's sum has every term of QualSim's, each no smaller, plus more, so
// the rounded bound is never below the rounded quality. A pattern without
// nodes or without weight scores 1 whatever the mapping, and one with a
// negative weight gets an infinite sim bound: its qualSim may exceed 1.
func QualityBound(g1 *graph.Graph, ub []float64, xi float64) (card, sim float64) {
	xi = min(max(xi, 0), 1)
	n := g1.NumNodes()
	if n == 0 {
		return 1, 1
	}
	total, got, admissible, negative := 0.0, 0.0, 0, false
	for v := 0; v < n; v++ {
		w := g1.Weight(graph.NodeID(v))
		negative = negative || !(w >= 0)
		total += w
		if ub[v] >= xi {
			admissible++
			got += w * ub[v]
		}
	}
	card = float64(admissible) / float64(n)
	switch {
	case negative:
		sim = math.Inf(1)
	case total == 0:
		sim = 1
	default:
		sim = got / total
	}
	return card, sim
}

// Matches reports the paper's Section 6 match convention: G1 matches G2
// when the mapping's quality reaches the threshold (0.75 in all reported
// experiments). The metric argument selects qualCard or qualSim.
func Matches(in *Instance, m Mapping, metric Metric, threshold float64) bool {
	switch metric {
	case MetricCard:
		return in.QualCard(m) >= threshold
	case MetricSim:
		return in.QualSim(m) >= threshold
	default:
		return false
	}
}

// Metric selects one of the paper's two graph-similarity measures.
type Metric int

const (
	// MetricCard is maximum cardinality: qualCard(σ) = |dom σ| / |V1|.
	MetricCard Metric = iota
	// MetricSim is maximum overall similarity:
	// qualSim(σ) = Σ w(v)·mat(v,σ(v)) / Σ w(v).
	MetricSim
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricCard:
		return "qualCard"
	case MetricSim:
		return "qualSim"
	default:
		return "unknown"
	}
}
