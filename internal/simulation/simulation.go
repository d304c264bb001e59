// Package simulation implements graph simulation in the style of
// Henzinger, Henzinger & Kopke [17] — the structure-based baseline the
// paper compares against ("graphSimulation" in Section 6).
//
// A simulation of pattern G1 by data G2 is the largest relation
// R ⊆ V1 × V2 such that (v, u) ∈ R implies (a) the nodes are similar
// (mat(v, u) ≥ ξ) and (b) for every edge (v, v') of G1 there is an edge
// (u, u') of G2 with (v', u') ∈ R. Note the *edge-to-edge* requirement —
// this is exactly what p-hom relaxes to edge-to-path, and why simulation
// finds no matches once hyperlinks stretch into paths (Exp-1/Exp-2).
//
// The implementation is a counter-based refinement fixpoint: remove(v, u)
// when some successor constraint of v has no witness left among u's
// successors. Cost is O(|V1|·|E2| + |E1|·|V2|) after the candidate
// initialisation, matching the HHK bound's shape.
package simulation

import (
	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Result is the maximal simulation relation: Sim[v] is the set of data
// nodes simulating pattern node v.
type Result struct {
	Sim []*bitset.Set
	n1  int
}

// Compute returns the maximal simulation of g1 by g2 under mat/ξ.
func Compute(g1, g2 *graph.Graph, mat simmatrix.Matrix, xi float64) *Result {
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	sim := make([]*bitset.Set, n1)
	for v := 0; v < n1; v++ {
		set := bitset.New(n2)
		for u := 0; u < n2; u++ {
			if mat.Score(graph.NodeID(v), graph.NodeID(u)) >= xi {
				set.Add(u)
			}
		}
		sim[v] = set
	}

	// Fixpoint refinement with a worklist of pattern nodes whose sim set
	// shrank (so their parents must be re-checked).
	queue := make([]graph.NodeID, 0, n1)
	inQueue := make([]bool, n1)
	push := func(v graph.NodeID) {
		if !inQueue[v] {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}
	for v := 0; v < n1; v++ {
		push(graph.NodeID(v))
	}

	for len(queue) > 0 {
		v2 := queue[0]
		queue = queue[1:]
		inQueue[v2] = false
		// Re-check every parent v of v2: u ∈ sim(v) must have a successor
		// in sim(v2).
		for _, v := range g1.Prev(v2) {
			set := sim[v]
			changed := false
			for u := set.Next(0); u >= 0; u = set.Next(u + 1) {
				if !hasSuccessorIn(g2, graph.NodeID(u), sim[v2]) {
					set.Remove(u)
					changed = true
				}
			}
			if changed {
				push(v)
			}
		}
	}
	return &Result{Sim: sim, n1: n1}
}

func hasSuccessorIn(g2 *graph.Graph, u graph.NodeID, target *bitset.Set) bool {
	for _, u2 := range g2.Post(u) {
		if target.Contains(int(u2)) {
			return true
		}
	}
	return false
}

// Matches reports the whole-graph match criterion the paper applies to
// graph simulation: every pattern node must have at least one simulator.
func (r *Result) Matches() bool {
	for _, set := range r.Sim {
		if set.Empty() {
			return false
		}
	}
	return r.n1 >= 0
}
