package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomEdgeList draws a graph the bulk builder must handle like
// AddEdge+Finish: edges shuffled, with duplicates, self-loops and
// isolated nodes; n may be 0.
func randomEdgeList(rng *rand.Rand) ([]Node, [][2]NodeID) {
	n := rng.Intn(301)
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Label: string(rune('a' + rng.Intn(4))), Weight: float64(rng.Intn(3))}
	}
	if n == 0 {
		return nodes, nil
	}
	// Only the first half of the nodes get edges, so the rest stay
	// isolated.
	span := 1 + n/2
	edges := make([][2]NodeID, rng.Intn(4*n+1))
	for i := range edges {
		edges[i] = [2]NodeID{NodeID(rng.Intn(span)), NodeID(rng.Intn(span))}
		switch rng.Intn(8) {
		case 0:
			edges[i][1] = edges[i][0] // self-loop
		case 1:
			if i > 0 {
				edges[i] = edges[rng.Intn(i)] // duplicate
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return nodes, edges
}

// byAddEdge builds the same graph node by node and edge by edge.
func byAddEdge(nodes []Node, edges [][2]NodeID) *Graph {
	g := New(len(nodes))
	for _, nd := range nodes {
		g.AddNodeFull(nd)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	g.Finish()
	return g
}

// sameRows reports the first difference between two graphs in node
// records, Post and Prev rows, NumEdges or Edges order, or "".
func sameRows(a, b *Graph) string {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return "sizes differ"
	}
	for v := NodeID(0); int(v) < a.NumNodes(); v++ {
		if a.Node(v) != b.Node(v) {
			return "node records differ"
		}
		if !slices.Equal(a.Post(v), b.Post(v)) {
			return "post rows differ"
		}
		if !slices.Equal(a.Prev(v), b.Prev(v)) {
			return "prev rows differ"
		}
	}
	var ea, eb [][2]NodeID
	a.Edges(func(f, t NodeID) bool { ea = append(ea, [2]NodeID{f, t}); return true })
	b.Edges(func(f, t NodeID) bool { eb = append(eb, [2]NodeID{f, t}); return true })
	if !slices.Equal(ea, eb) {
		return "edge order differs"
	}
	return ""
}

func TestFromEdgesMatchesFinish(t *testing.T) {
	f := func(seed int64) bool {
		nodes, edges := randomEdgeList(rand.New(rand.NewSource(seed)))
		want := byAddEdge(nodes, edges)
		got := FromEdges(slices.Clone(nodes), slices.Clone(edges))
		if diff := sameRows(got, want); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if g := FromEdges(nil, nil); g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an edge endpoint out of range")
		}
	}()
	FromEdges(make([]Node, 2), [][2]NodeID{{0, 2}})
}

// TestFromEdgesCopyOnWrite patches a builder-made graph — adding nodes,
// adding edges and deleting edges in rows that sit mid-arena — and
// checks that the parent's rows are untouched and the patched version
// equals the same patch applied to an AddEdge-built graph.
func TestFromEdgesCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		n := 200 + rng.Intn(200) // spans pages and a tail
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{Label: "n", Weight: 1}
		}
		var edges [][2]NodeID
		for v := 0; v < n; v++ {
			for d := 0; d < 3; d++ {
				edges = append(edges, [2]NodeID{NodeID(v), NodeID(rng.Intn(n))})
			}
		}
		g := FromEdges(slices.Clone(nodes), slices.Clone(edges))
		ref := byAddEdge(nodes, edges)
		before := make([][2][]NodeID, n)
		for v := range before {
			before[v] = [2][]NodeID{slices.Clone(g.Post(NodeID(v))), slices.Clone(g.Prev(NodeID(v)))}
		}

		p := &Patch{AddNodes: []Node{{Label: "x"}, {Label: "y"}}}
		for i := 0; i < 6; i++ {
			v := NodeID(1 + rng.Intn(n-2)) // never the arena's first or last row
			if row := g.Post(v); len(row) > 0 {
				p.DelEdges = append(p.DelEdges, [2]NodeID{v, row[rng.Intn(len(row))]})
			}
		}
		slices.SortFunc(p.DelEdges, func(a, b [2]NodeID) int {
			if a[0] != b[0] {
				return int(a[0] - b[0])
			}
			return int(a[1] - b[1])
		})
		p.DelEdges = slices.Compact(p.DelEdges)
		for i := 0; i < 6; i++ {
			p.AddEdges = append(p.AddEdges,
				[2]NodeID{NodeID(rng.Intn(n)), NodeID(n + rng.Intn(2))},
				[2]NodeID{NodeID(1 + rng.Intn(n-2)), NodeID(rng.Intn(n))})
		}

		got, err := g.ApplyPatch(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ApplyPatch(p)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameRows(got, want); diff != "" {
			t.Fatalf("round %d: patched builder graph vs patched AddEdge graph: %s", round, diff)
		}
		for v := range before {
			if !slices.Equal(g.Post(NodeID(v)), before[v][0]) || !slices.Equal(g.Prev(NodeID(v)), before[v][1]) {
				t.Fatalf("round %d: ApplyPatch wrote through row %d of its parent", round, v)
			}
		}
		if g.NumNodes() != n || g.NumEdges() != ref.NumEdges() {
			t.Fatalf("round %d: parent changed size", round)
		}
	}
}

// TestApplyPatchAllocatesTouchedFromEdges holds builder-made graphs to
// TestApplyPatchAllocatesTouched's bound.
func TestApplyPatchAllocatesTouchedFromEdges(t *testing.T) {
	rebuilt := func(n int) *Graph {
		g := sparseGraph(n, 1)
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = g.Node(NodeID(v))
		}
		var edges [][2]NodeID
		g.Edges(func(f, t NodeID) bool { edges = append(edges, [2]NodeID{f, t}); return true })
		return FromEdges(nodes, edges)
	}
	small, large := patchBytesOn(rebuilt(2000)), patchBytesOn(rebuilt(20000))
	t.Logf("bytes per single-edge patch: n=2000 %.0f, n=20000 %.0f", small, large)
	if small >= 16<<10 || large >= 16<<10 {
		t.Fatalf("a single-edge patch allocates %.0f B at n=2000 and %.0f B at n=20000, want both < 16 KB", small, large)
	}
	if large >= 2*small {
		t.Fatalf("patch allocation grows with the graph: %.0f B at n=2000, %.0f B at n=20000", small, large)
	}
}

// condenseByAddEdge is Condense's DAG as AddEdge builds it.
func condenseByAddEdge(g *Graph, scc *SCCResult) *Graph {
	dag := New(scc.NumComponents())
	for range scc.Members {
		dag.AddNode("")
	}
	g.Edges(func(from, to NodeID) bool {
		if cf, ct := scc.Comp[from], scc.Comp[to]; cf != ct {
			dag.AddEdge(NodeID(cf), NodeID(ct))
		}
		return true
	})
	dag.Finish()
	return dag
}

// checkCondensation asserts that every SCC member list is strictly
// ascending and that Condense's DAG equals the AddEdge-built one.
func checkCondensation(t *testing.T, g *Graph) {
	t.Helper()
	dag, scc, _ := g.Condense()
	for c, ms := range scc.Members {
		if len(ms) == 0 || !strictlyAscending(ms) {
			t.Fatalf("members of component %d not strictly ascending: %v", c, ms)
		}
	}
	if diff := sameRows(dag, condenseByAddEdge(g, scc)); diff != "" {
		t.Fatalf("condensation DAG differs from the AddEdge-built one: %s", diff)
	}
}

func TestQuickCondenseMatchesAddEdge(t *testing.T) {
	f := func(seed int64) bool {
		nodes, edges := randomEdgeList(rand.New(rand.NewSource(seed)))
		checkCondensation(t, FromEdges(nodes, edges))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
