package simulation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

func TestIdenticalGraphsSimulate(t *testing.T) {
	g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	r := Compute(g, g, simmatrix.NewLabelEquality(g, g), 0.5)
	if !r.Matches() {
		t.Fatal("a graph should simulate itself")
	}
	for v := 0; v < 3; v++ {
		if !r.Sim[v].Contains(v) {
			t.Fatalf("node %d should simulate itself", v)
		}
	}
	if !Compute(graph.New(0), g, simmatrix.Constant(0), 0.5).Matches() {
		t.Fatal("an empty pattern should trivially match")
	}
}

func TestEdgeToEdgeOnly(t *testing.T) {
	// Pattern a→c vs data a→b→c: p-hom matches, simulation must NOT (the
	// pattern edge has no edge-to-edge witness).
	g1 := graph.FromEdgeList([]string{"a", "c"}, [][2]int{{0, 1}})
	g2 := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	r := Compute(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	if r.Matches() {
		t.Fatal("simulation must require edge-to-edge matches")
	}
	// Node c still has a simulator; only a loses its set.
	if r.Sim[0].Count() != 0 {
		t.Errorf("a should have no simulator, got %v", r.Sim[0].Slice())
	}
	if r.Sim[1].Count() != 1 {
		t.Errorf("c should keep its simulator, got %v", r.Sim[1].Slice())
	}
}

func TestRefinementCascades(t *testing.T) {
	// Chain a→b→c vs data where the only c candidate is unreachable:
	// removal must propagate up to a.
	g1 := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	g2 := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}}) // no b→c
	r := Compute(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	if !r.Sim[0].Empty() || !r.Sim[1].Empty() {
		t.Fatal("emptiness should cascade from c through b to a")
	}
	if r.Matches() {
		t.Fatal("should not match")
	}
}

func TestSimulationAllowsManyToOne(t *testing.T) {
	// Two pattern A-nodes both simulated by the single data A node.
	g1 := graph.FromEdgeList([]string{"A", "A", "B"}, [][2]int{{0, 2}, {1, 2}})
	g2 := graph.FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
	r := Compute(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	if !r.Matches() {
		t.Fatal("simulation is a relation; many-to-one is fine")
	}
}

// Property: the computed relation is indeed a simulation (every surviving
// pair satisfies the edge-to-edge condition) and it is maximal w.r.t.
// single-pair additions.
func TestSimulationSoundAndMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := []string{"a", "b", "c"}
		mk := func(n int) *graph.Graph {
			g := graph.New(n)
			for i := 0; i < n; i++ {
				g.AddNode(labels[rng.Intn(len(labels))])
			}
			for i := 0; i < n*2; i++ {
				g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			}
			g.Finish()
			return g
		}
		g1, g2 := mk(6), mk(8)
		mat := simmatrix.NewLabelEquality(g1, g2)
		r := Compute(g1, g2, mat, 0.5)
		// Soundness.
		for v := 0; v < g1.NumNodes(); v++ {
			set := r.Sim[v]
			for u := set.Next(0); u >= 0; u = set.Next(u + 1) {
				if mat.Score(graph.NodeID(v), graph.NodeID(u)) < 0.5 {
					return false
				}
				for _, v2 := range g1.Post(graph.NodeID(v)) {
					if !hasSuccessorIn(g2, graph.NodeID(u), r.Sim[v2]) {
						return false
					}
				}
			}
		}
		// Maximality: no admissible dropped pair can be added back while
		// satisfying the condition against the current relation.
		for v := 0; v < g1.NumNodes(); v++ {
			for u := 0; u < g2.NumNodes(); u++ {
				if r.Sim[v].Contains(u) || mat.Score(graph.NodeID(v), graph.NodeID(u)) < 0.5 {
					continue
				}
				ok := true
				for _, v2 := range g1.Post(graph.NodeID(v)) {
					if !hasSuccessorIn(g2, graph.NodeID(u), r.Sim[v2]) {
						ok = false
						break
					}
				}
				if ok {
					// Adding (v,u) alone would already be consistent — the
					// relation was not maximal. (The greatest simulation
					// contains every pair that is consistent with it.)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
