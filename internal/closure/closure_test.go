package closure

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/graph"
)

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + i%26)))
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

func TestReachableChain(t *testing.T) {
	g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	r := Compute(g)
	if !r.Reachable(0, 1) || !r.Reachable(0, 2) || !r.Reachable(1, 2) {
		t.Error("forward reachability missing")
	}
	if r.Reachable(2, 0) || r.Reachable(1, 0) {
		t.Error("backward reachability should not exist")
	}
	// Nonempty-path semantics: no node reaches itself without a cycle.
	for v := graph.NodeID(0); v < 3; v++ {
		if r.Reachable(v, v) {
			t.Errorf("node %d reaches itself on a path-free chain", v)
		}
	}
}

func TestReachableSelfLoop(t *testing.T) {
	g := graph.FromEdgeList([]string{"a", "b"}, [][2]int{{0, 0}, {0, 1}})
	r := Compute(g)
	if !r.Reachable(0, 0) {
		t.Error("self-loop node must reach itself")
	}
	if r.Reachable(1, 1) {
		t.Error("plain node must not reach itself")
	}
}

func TestReachableCycle(t *testing.T) {
	g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	r := Compute(g)
	for u := graph.NodeID(0); u < 3; u++ {
		for v := graph.NodeID(0); v < 3; v++ {
			if !r.Reachable(u, v) {
				t.Errorf("cycle: %d should reach %d", u, v)
			}
		}
	}
}

func TestComputeMatchesBFSReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(seed, 30, 70)
		fast := Compute(g)
		ref := ComputeBounded(g, g.NumNodes())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if fast.Reachable(u, v) != ref.Reachable(u, v) {
					t.Fatalf("seed %d: Reachable(%d,%d): fast=%v ref=%v",
						seed, u, v, fast.Reachable(u, v), ref.Reachable(u, v))
				}
			}
		}
	}
}

func TestComputeMatchesHasPath(t *testing.T) {
	g := randomGraph(42, 20, 50)
	r := Compute(g)
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if r.Reachable(u, v) != g.HasPath(u, v) {
				t.Fatalf("Reachable(%d,%d) disagrees with HasPath", u, v)
			}
		}
	}
}

func TestReachableSetAndCount(t *testing.T) {
	g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	r := Compute(g)
	s := r.ReachableSet(0)
	if s.Count() != 2 || !s.Contains(1) || !s.Contains(2) {
		t.Fatalf("ReachableSet(0) = %v", s.Slice())
	}
}

func TestClosureGraph(t *testing.T) {
	g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	plus := Compute(g).Graph(g)
	if plus.NumEdges() != 3 {
		t.Fatalf("closure edges = %d, want 3", plus.NumEdges())
	}
	if !plus.HasEdge(0, 2) {
		t.Error("closure missing transitive edge (0,2)")
	}
	if plus.Label(0) != "a" {
		t.Error("closure lost node labels")
	}
}

func TestClosureGraphIdempotentOnClosedGraphs(t *testing.T) {
	// Property: (G+)+ = G+.
	f := func(seed int64) bool {
		g := randomGraph(seed, 12, 25)
		p1 := Compute(g).Graph(g)
		p2 := Compute(p1).Graph(p1)
		return graph.Equal(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitivityProperty(t *testing.T) {
	// Property: Reachable(u,v) && Reachable(v,w) ⇒ Reachable(u,w).
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 30)
		r := Compute(g)
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if !r.Reachable(graph.NodeID(u), graph.NodeID(v)) {
					continue
				}
				for w := 0; w < n; w++ {
					if r.Reachable(graph.NodeID(v), graph.NodeID(w)) &&
						!r.Reachable(graph.NodeID(u), graph.NodeID(w)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeImpliesReachable(t *testing.T) {
	g := randomGraph(9, 25, 60)
	r := Compute(g)
	g.Edges(func(from, to graph.NodeID) bool {
		if !r.Reachable(from, to) {
			t.Fatalf("edge (%d,%d) not reachable in closure", from, to)
		}
		return true
	})
}

func TestComputeBoundedSemantics(t *testing.T) {
	// Chain 0→1→2→3: bounded reachability cuts off at the hop limit.
	g := graph.FromEdgeList([]string{"a", "b", "c", "d"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}})
	r1 := ComputeBounded(g, 1)
	if !r1.Reachable(0, 1) || r1.Reachable(0, 2) {
		t.Fatal("1-bounded reach must be exactly the edges")
	}
	r2 := ComputeBounded(g, 2)
	if !r2.Reachable(0, 2) || r2.Reachable(0, 3) {
		t.Fatal("2-bounded reach wrong")
	}
	r3 := ComputeBounded(g, 3)
	if !r3.Reachable(0, 3) {
		t.Fatal("3-bounded reach should cover the chain")
	}
}

func TestComputeBoundedZeroIsUnbounded(t *testing.T) {
	g := randomGraph(21, 20, 50)
	full := Compute(g)
	viaZero := ComputeBounded(g, 0)
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if full.Reachable(u, v) != viaZero.Reachable(u, v) {
				t.Fatalf("bound 0 disagrees with full closure at (%d,%d)", u, v)
			}
		}
	}
}

func TestComputeBoundedLargeBoundMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 35)
		full := Compute(g)
		bounded := ComputeBounded(g, g.NumNodes()) // n hops suffice
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if full.Reachable(graph.NodeID(u), graph.NodeID(v)) !=
					bounded.Reachable(graph.NodeID(u), graph.NodeID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeBoundedMonotone(t *testing.T) {
	// Property: reach at bound k is a subset of reach at bound k+1.
	f := func(seed int64) bool {
		g := randomGraph(seed, 12, 26)
		prev := ComputeBounded(g, 1)
		for k := 2; k <= 4; k++ {
			cur := ComputeBounded(g, k)
			for u := 0; u < g.NumNodes(); u++ {
				for v := 0; v < g.NumNodes(); v++ {
					if prev.Reachable(graph.NodeID(u), graph.NodeID(v)) &&
						!cur.Reachable(graph.NodeID(u), graph.NodeID(v)) {
						return false
					}
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeBoundedSelfLoop(t *testing.T) {
	g := graph.FromEdgeList([]string{"a"}, [][2]int{{0, 0}})
	r := ComputeBounded(g, 1)
	if !r.Reachable(0, 0) {
		t.Fatal("self-loop is a length-1 path")
	}
}

func BenchmarkComputeSCC(b *testing.B) {
	g := randomGraph(1, 500, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g)
	}
}

// BenchmarkComputeBFS times the per-node BFS construction at full depth,
// the baseline BenchmarkComputeSCC is compared against.
func BenchmarkComputeBFS(b *testing.B) {
	g := randomGraph(1, 500, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeBounded(g, g.NumNodes())
	}
}
