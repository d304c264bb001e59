package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func diamond() *Graph {
	// A -> B, A -> C, B -> D, C -> D
	return FromEdgeList([]string{"A", "B", "C", "D"}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0)
	for i := 0; i < 5; i++ {
		id := g.AddNode("x")
		if int(id) != i {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestZeroWeightNormalisedToOne(t *testing.T) {
	g := New(1)
	v := g.AddNodeFull(Node{Label: "a"})
	if w := g.Weight(v); w != 1 {
		t.Fatalf("Weight = %v, want 1", w)
	}
	u := g.AddNodeFull(Node{Label: "b", Weight: 2.5})
	if w := g.Weight(u); w != 2.5 {
		t.Fatalf("Weight = %v, want 2.5", w)
	}
}

func TestParallelEdgesDeduplicated(t *testing.T) {
	g := New(2)
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
	if got := len(g.Post(a)); got != 1 {
		t.Fatalf("len(Post) = %d, want 1", got)
	}
	if got := len(g.Prev(b)); got != 1 {
		t.Fatalf("len(Prev) = %d, want 1", got)
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		from, to NodeID
		want     bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{1, 0, false}, {0, 3, false}, {3, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.from, c.to); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestPrevPostConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(50)
	for i := 0; i < 50; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 300; i++ {
		g.AddEdge(NodeID(rng.Intn(50)), NodeID(rng.Intn(50)))
	}
	g.Finish()
	// Every edge in post must appear in the target's prev, and vice versa.
	g.Edges(func(from, to NodeID) bool {
		found := false
		for _, p := range g.Prev(to) {
			if p == from {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge (%d,%d) in post but %d not in prev(%d)", from, to, from, to)
		}
		return true
	})
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		total += len(g.Prev(NodeID(v)))
	}
	if total != g.NumEdges() {
		t.Fatalf("sum of in-degrees %d != NumEdges %d", total, g.NumEdges())
	}
}

func TestDegree(t *testing.T) {
	g := diamond()
	if d := g.Degree(0); d != 2 {
		t.Errorf("Degree(A) = %d, want 2", d)
	}
	if d := g.Degree(3); d != 2 {
		t.Errorf("Degree(D) = %d, want 2", d)
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("Degree(B) = %d, want 2", d)
	}
}

func TestHasPathExcludesEmptyPath(t *testing.T) {
	g := diamond()
	if !g.HasPath(0, 3) {
		t.Error("HasPath(A,D) = false, want true")
	}
	if g.HasPath(3, 0) {
		t.Error("HasPath(D,A) = true, want false")
	}
	// No self-loop: the empty path must not count.
	if g.HasPath(0, 0) {
		t.Error("HasPath(A,A) = true on loop-free graph, want false")
	}
}

func TestHasPathSelfLoop(t *testing.T) {
	g := FromEdgeList([]string{"a"}, [][2]int{{0, 0}})
	if !g.HasPath(0, 0) {
		t.Error("HasPath on self-loop = false, want true")
	}
}

func TestHasPathCycle(t *testing.T) {
	g := FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	for v := NodeID(0); v < 3; v++ {
		for u := NodeID(0); u < 3; u++ {
			if !g.HasPath(v, u) {
				t.Errorf("HasPath(%d,%d) in 3-cycle = false, want true", v, u)
			}
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := diamond()
	p := g.ShortestPath(0, 3)
	if len(p) != 3 || p[0] != 0 || p[2] != 3 {
		t.Fatalf("ShortestPath(A,D) = %v, want length-3 path A..D", p)
	}
	if g.ShortestPath(3, 0) != nil {
		t.Error("ShortestPath(D,A) != nil, want nil")
	}
}

func TestShortestPathSelfLoop(t *testing.T) {
	g := FromEdgeList([]string{"a"}, [][2]int{{0, 0}})
	p := g.ShortestPath(0, 0)
	if len(p) != 2 || p[0] != 0 || p[1] != 0 {
		t.Fatalf("ShortestPath self-loop = %v, want [0 0]", p)
	}
}

func TestShortestPathEdgesExist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(30)
	for i := 0; i < 30; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 90; i++ {
		g.AddEdge(NodeID(rng.Intn(30)), NodeID(rng.Intn(30)))
	}
	g.Finish()
	for u := NodeID(0); u < 30; u++ {
		for v := NodeID(0); v < 30; v++ {
			p := g.ShortestPath(u, v)
			if (p != nil) != g.HasPath(u, v) {
				t.Fatalf("ShortestPath(%d,%d) presence disagrees with HasPath", u, v)
			}
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					t.Fatalf("path %v uses missing edge (%d,%d)", p, p[i], p[i+1])
				}
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: {0,1} and {2}.
	g := FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}})
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if len(comps[0])+len(comps[1]) != 3 {
		t.Fatalf("components cover %d nodes, want 3", len(comps[0])+len(comps[1]))
	}
}

func TestConnectedComponentsIgnoreDirection(t *testing.T) {
	// 0 -> 1 <- 2 is one undirected component.
	g := FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {2, 1}})
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
}

func TestIsDAG(t *testing.T) {
	g := diamond()
	if !g.IsDAG() {
		t.Error("diamond should be a DAG")
	}

	cyc := FromEdgeList([]string{"a", "b"}, [][2]int{{0, 1}, {1, 0}})
	if cyc.IsDAG() {
		t.Error("2-cycle reported as DAG")
	}
	loop := FromEdgeList([]string{"a"}, [][2]int{{0, 0}})
	if loop.IsDAG() {
		t.Error("self-loop reported as DAG")
	}
}

func TestSCCSimple(t *testing.T) {
	// 0 <-> 1 form one SCC; 2 is alone; 1 -> 2.
	g := FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 0}, {1, 2}})
	r := g.SCC()
	if r.NumComponents() != 2 {
		t.Fatalf("got %d SCCs, want 2", r.NumComponents())
	}
	if r.Comp[0] != r.Comp[1] {
		t.Error("0 and 1 should share an SCC")
	}
	if r.Comp[2] == r.Comp[0] {
		t.Error("2 should be in its own SCC")
	}
}

func TestSCCReverseTopological(t *testing.T) {
	// Component order property: an edge a→b across components implies
	// Comp[a] > Comp[b] (reverse topological).
	rng := rand.New(rand.NewSource(11))
	g := New(40)
	for i := 0; i < 40; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 120; i++ {
		g.AddEdge(NodeID(rng.Intn(40)), NodeID(rng.Intn(40)))
	}
	g.Finish()
	r := g.SCC()
	g.Edges(func(from, to NodeID) bool {
		if r.Comp[from] != r.Comp[to] && r.Comp[from] <= r.Comp[to] {
			t.Fatalf("edge (%d,%d): comp %d <= %d violates reverse topo order",
				from, to, r.Comp[from], r.Comp[to])
		}
		return true
	})
}

func TestSCCMutualReachability(t *testing.T) {
	// Property: two nodes share an SCC iff each reaches the other.
	rng := rand.New(rand.NewSource(13))
	g := New(25)
	for i := 0; i < 25; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 60; i++ {
		g.AddEdge(NodeID(rng.Intn(25)), NodeID(rng.Intn(25)))
	}
	g.Finish()
	r := g.SCC()
	for a := 0; a < 25; a++ {
		for b := 0; b < 25; b++ {
			same := r.Comp[a] == r.Comp[b]
			mutual := a == b || g.HasPath(NodeID(a), NodeID(b)) && g.HasPath(NodeID(b), NodeID(a))
			if same != mutual {
				t.Fatalf("nodes %d,%d: sameSCC=%v mutual=%v", a, b, same, mutual)
			}
		}
	}
}

func TestCondense(t *testing.T) {
	g := FromEdgeList([]string{"a", "b", "c", "d"},
		[][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}})
	dag, scc, selfReach := g.Condense()
	if scc.NumComponents() != 2 {
		t.Fatalf("got %d SCCs, want 2", scc.NumComponents())
	}
	if !dag.IsDAG() {
		t.Error("condensation must be a DAG")
	}
	if dag.NumEdges() != 1 {
		t.Errorf("condensation edges = %d, want 1", dag.NumEdges())
	}
	for i := 0; i < 2; i++ {
		if !selfReach[i] {
			t.Errorf("component %d should be self-reaching (size 2)", i)
		}
	}
	checkCondensation(t, g)
}

func TestCondenseSelfLoop(t *testing.T) {
	g := FromEdgeList([]string{"a", "b"}, [][2]int{{0, 0}, {0, 1}})
	_, scc, selfReach := g.Condense()
	if !selfReach[scc.Comp[0]] {
		t.Error("self-loop component should be self-reaching")
	}
	if selfReach[scc.Comp[1]] {
		t.Error("plain singleton should not be self-reaching")
	}
	checkCondensation(t, g)
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond()
	sub, orig := g.InducedSubgraph([]NodeID{0, 1, 3})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d, want 3", sub.NumNodes())
	}
	// Edges (0,1) and (1,3) survive; (0,2),(2,3) drop.
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	if g.Label(orig[0]) != sub.Label(0) {
		t.Error("label mismatch after induction")
	}
}

func TestInducedSubgraphDropsDuplicates(t *testing.T) {
	g := diamond()
	sub, _ := g.InducedSubgraph([]NodeID{1, 1, 1})
	if sub.NumNodes() != 1 {
		t.Fatalf("sub nodes = %d, want 1", sub.NumNodes())
	}
}

func TestReverse(t *testing.T) {
	g := diamond()
	r := g.Reverse()
	g.Edges(func(from, to NodeID) bool {
		if !r.HasEdge(to, from) {
			t.Errorf("reverse missing edge (%d,%d)", to, from)
		}
		return true
	})
	if r.NumEdges() != g.NumEdges() {
		t.Errorf("reverse edges = %d, want %d", r.NumEdges(), g.NumEdges())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := diamond()
	c := g.Clone()
	if !Equal(g, c) {
		t.Fatal("clone not equal to original")
	}
	c.AddEdge(3, 0)
	if Equal(g, c) {
		t.Fatal("mutating clone affected original")
	}
	if g.HasEdge(3, 0) {
		t.Fatal("original gained an edge from clone mutation")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond()
	g.SetWeight(2, 4.5)
	g.SetContent(1, "books and more books")
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !Equal(g, got) {
		t.Fatalf("round trip mismatch: %s vs %s", g, got)
	}
}

func TestJSONRejectsBadEdges(t *testing.T) {
	bad := `{"nodes":[{"label":"a"}],"edges":[[0,5]]}`
	g := New(0)
	if err := g.UnmarshalJSON([]byte(bad)); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
}

func TestStats(t *testing.T) {
	g := diamond()
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDeg != 2 {
		t.Errorf("AvgDeg = %v, want 2", s.AvgDeg)
	}
	if s.MaxDeg != 2 {
		t.Errorf("MaxDeg = %v, want 2", s.MaxDeg)
	}
}

func TestTopKByDegree(t *testing.T) {
	// Star: center has degree 4, leaves 1.
	g := FromEdgeList([]string{"c", "l", "l", "l", "l"},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	top := TopKByDegree(g, 1)
	if len(top) != 1 || top[0] != 0 {
		t.Fatalf("TopK(1) = %v, want [0]", top)
	}
	if got := TopKByDegree(g, 100); len(got) != 5 {
		t.Fatalf("TopK over size = %v, want all 5", got)
	}
}

func TestDegreeSkeleton(t *testing.T) {
	g := FromEdgeList([]string{"c", "l", "l", "l", "l"},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	// avgDeg = 8/5 = 1.6, maxDeg = 4. α = 0.2 → threshold 2.4: only center.
	keep := DegreeSkeleton(g, 0.2)
	if len(keep) != 1 || keep[0] != 0 {
		t.Fatalf("skeleton = %v, want [0]", keep)
	}
	// α = 0 → threshold 1.6: still only center (leaves have degree 1).
	if keep := DegreeSkeleton(g, 0); len(keep) != 1 {
		t.Fatalf("skeleton α=0 = %v, want [0]", keep)
	}
}

func TestLabelHelpers(t *testing.T) {
	g := FromEdgeList([]string{"b", "a", "b"}, nil)
	if got := g.FindLabel("a"); got != 1 {
		t.Errorf("FindLabel = %d, want 1", got)
	}
	if got := g.FindLabel("zzz"); got != Invalid {
		t.Errorf("FindLabel missing = %d, want Invalid", got)
	}
}

// quick-check: for random graphs, every SCC member set is consistent
// with Comp and together they cover every node.
func TestQuickSCCMembersConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g.Finish()
		r := g.SCC()
		covered := 0
		for id, ms := range r.Members {
			for _, v := range ms {
				if r.Comp[v] != id {
					return false
				}
				covered++
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		for i := 0; i < n*3; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g.Finish()
		return Equal(g, g.Reverse().Reverse())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	g := New(1)
	g.AddNode("a")
	g.Label(5)
}
