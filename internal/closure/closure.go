// Package closure computes and indexes the transitive closure of directed
// graphs. The p-hom algorithms consult the closure of G2 constantly — the
// adjacency matrix H2 of G2+ in Fig. 3 answers "is there a nonempty path
// from u1 to u2?" in O(1) — so closure construction and representation
// dominate preprocessing cost.
//
// Two constructions are provided:
//
//   - Compute: an SCC-condensation algorithm in the style of Nuutila [22]
//     (the algorithm the paper cites): collapse SCCs with Tarjan, propagate
//     reachability bitsets over the condensation DAG in reverse topological
//     order, then read member reachability through component rows. Nodes in
//     a nontrivial SCC (or with a self-loop) reach themselves by a nonempty
//     path, which makes every SCC a clique in G2+ — the fact Appendix B's
//     compression (internal/experiments) exploits.
//
//   - ComputeBounded: one successor-seeded BFS per node, cut at a path
//     length. It serves path_limit; at a bound of |V| it is the full
//     closure, asymptotically worse but obviously correct, so tests use it
//     as Compute's reference and benchmarks quantify the gap (DESIGN.md
//     ablation #5).
package closure

import (
	"context"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// cancelCheckEvery is how many per-node (or per-component) build steps
// pass between context polls in the Ctx constructors: frequent enough
// that an abandoned build on a large graph stops within microseconds,
// rare enough that the poll never shows up in a profile.
const cancelCheckEvery = 256

// Reach indexes the transitive closure of a graph: Reachable(u, v) reports
// whether a nonempty path u ⇝ v exists. It is immutable once built and safe
// for concurrent readers.
type Reach struct {
	n int
	// comp[v] = component of v in the SCC condensation.
	comp []int
	// compReach[c] = bitset over components reachable from component c by a
	// path of length ≥ 1 in the condensation, including c itself iff c is
	// self-reaching (nontrivial SCC or self-loop).
	compReach []*bitset.Set
}

// Compute builds the closure index using SCC condensation and bitset
// propagation.
func Compute(g *graph.Graph) *Reach {
	r, _ := ComputeCtx(context.Background(), g)
	return r
}

// ComputeCtx is Compute with cooperative cancellation: the propagation
// loop polls ctx periodically and returns ctx's error when the caller
// gave up, so an abandoned request does not keep a worker pinned on a
// large closure build. A Background context makes it identical to
// Compute.
func ComputeCtx(ctx context.Context, g *graph.Graph) (*Reach, error) {
	dag, scc, selfReach := g.Condense()
	k := scc.NumComponents()
	compReach := make([]*bitset.Set, k)

	// Component indices from Tarjan are in reverse topological order:
	// an edge a→b between distinct components has Comp[a] > Comp[b]. So
	// processing components in increasing index order guarantees all
	// successors are finished first.
	for c := 0; c < k; c++ {
		if c%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := bitset.New(k)
		for _, succ := range dag.Post(graph.NodeID(c)) {
			row.Add(int(succ))
			row.Or(compReach[succ])
		}
		if selfReach[c] {
			row.Add(c)
		}
		compReach[c] = row
	}
	return &Reach{n: g.NumNodes(), comp: scc.Comp, compReach: compReach}, nil
}

// ComputeBounded builds a bounded reachability index: Reachable(u, v)
// holds iff a nonempty path of length at most maxLen exists. This backs
// the fixed-length path-matching variant (cf. Zou et al. [32] in the
// paper's related work): with maxLen = 1 the index degenerates to plain
// adjacency, turning p-hom into similarity-relaxed graph homomorphism.
// A non-positive maxLen means unbounded and defers to Compute.
func ComputeBounded(g *graph.Graph, maxLen int) *Reach {
	r, _ := ComputeBoundedCtx(context.Background(), g, maxLen)
	return r
}

// ComputeBoundedCtx is ComputeBounded with cooperative cancellation,
// polling ctx between per-node BFS passes (and deferring to ComputeCtx
// when maxLen means unbounded).
func ComputeBoundedCtx(ctx context.Context, g *graph.Graph, maxLen int) (*Reach, error) {
	if maxLen <= 0 {
		return ComputeCtx(ctx, g)
	}
	n := g.NumNodes()
	comp := make([]int, n)
	rows := make([]*bitset.Set, n)
	for v := 0; v < n; v++ {
		if v%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		comp[v] = v
		row := bitset.New(n)
		// Level-bounded BFS from the successors of v.
		frontier := make([]graph.NodeID, 0, 8)
		for _, w := range g.Post(graph.NodeID(v)) {
			if !row.Contains(int(w)) {
				row.Add(int(w))
				frontier = append(frontier, w)
			}
		}
		for depth := 1; depth < maxLen && len(frontier) > 0; depth++ {
			var next []graph.NodeID
			for _, x := range frontier {
				for _, w := range g.Post(x) {
					if !row.Contains(int(w)) {
						row.Add(int(w))
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		rows[v] = row
	}
	return &Reach{n: n, comp: comp, compReach: rows}, nil
}

// NumNodes reports the number of nodes the index covers.
func (r *Reach) NumNodes() int { return r.n }

// NumComponents reports the number of components the index stores —
// the k that sizes the index's O(k²) footprint (equal
// to NumNodes for the per-node construction ComputeBounded).
func (r *Reach) NumComponents() int { return len(r.compReach) }

// Reachable reports whether a nonempty path from u to v exists.
func (r *Reach) Reachable(u, v graph.NodeID) bool {
	return r.compReach[r.comp[u]].Contains(r.comp[v])
}

// ReachableSet returns the set of nodes reachable from u by a nonempty
// path, as a freshly allocated bitset over node IDs.
func (r *Reach) ReachableSet(u graph.NodeID) *bitset.Set {
	out := bitset.New(r.n)
	row := r.compReach[r.comp[u]]
	for v := 0; v < r.n; v++ {
		if row.Contains(r.comp[v]) {
			out.Add(v)
		}
	}
	return out
}

// Graph materialises the closure as an explicit graph G+ with the same
// nodes as the original and an edge (u, v) for every nonempty path u ⇝ v.
// This is the construction the paper uses to make p-hom symmetric
// (Section 3.2 Remark: check G1+ ≼ G2) and in the SPH→WIS reduction.
func (r *Reach) Graph(original *graph.Graph) *graph.Graph {
	out := graph.New(r.n)
	for v := 0; v < r.n; v++ {
		out.AddNodeFull(original.Node(graph.NodeID(v)))
	}
	for u := 0; u < r.n; u++ {
		row := r.compReach[r.comp[u]]
		for v := 0; v < r.n; v++ {
			if row.Contains(r.comp[v]) {
				out.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	out.Finish()
	return out
}

// Bytes approximates the heap bytes held by the Reach index: the
// component assignment plus the component reachability rows. Used by
// the catalog's cache accounting.
func (r *Reach) Bytes() int {
	k := len(r.compReach)
	return 8*r.n + k*8*((k+63)/64)
}
