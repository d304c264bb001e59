package closure

import (
	"fmt"
	"math/rand"
	"testing"

	"graphmatch/internal/graph"
)

// applyForTest mirrors graph.ApplyPatch's order for the parts ApplyEdges
// models: append nodes, delete edges, add edges.
func applyForTest(t *testing.T, g0 *graph.Graph, addedNodes int, dels, adds [][2]graph.NodeID) *graph.Graph {
	t.Helper()
	p := &graph.Patch{DelEdges: dels, AddEdges: adds}
	for i := 0; i < addedNodes; i++ {
		p.AddNodes = append(p.AddNodes, graph.Node{Label: fmt.Sprintf("new%d", i)})
	}
	g2, err := g0.ApplyPatch(p)
	if err != nil {
		t.Fatalf("ApplyPatch: %v", err)
	}
	return g2
}

func reachMatrix(r *Reach) []bool {
	n := r.NumNodes()
	m := make([]bool, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			m[u*n+v] = r.Reachable(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return m
}

func requireSameClosure(t *testing.T, want, got *Reach, label string) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("%s: node count %d vs %d", label, got.NumNodes(), want.NumNodes())
	}
	n := want.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			w := want.Reachable(graph.NodeID(u), graph.NodeID(v))
			g := got.Reachable(graph.NodeID(u), graph.NodeID(v))
			if w != g {
				t.Fatalf("%s: Reachable(%d,%d) = %v, want %v", label, u, v, g, w)
			}
		}
	}
}

func deltaRandGraph(rng *rand.Rand, n int, edges int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

func randomPatch(rng *rand.Rand, g *graph.Graph) (addedNodes int, dels, adds [][2]graph.NodeID) {
	n := g.NumNodes()
	var all [][2]graph.NodeID
	g.Edges(func(from, to graph.NodeID) bool {
		all = append(all, [2]graph.NodeID{from, to})
		return true
	})
	seen := map[[2]graph.NodeID]bool{}
	for i := 0; i < rng.Intn(4); i++ {
		if len(all) == 0 {
			break
		}
		e := all[rng.Intn(len(all))]
		if !seen[e] {
			seen[e] = true
			dels = append(dels, e)
		}
	}
	addedNodes = rng.Intn(3)
	total := n + addedNodes
	for i := 0; i < rng.Intn(5); i++ {
		adds = append(adds, [2]graph.NodeID{
			graph.NodeID(rng.Intn(total)),
			graph.NodeID(rng.Intn(total)),
		})
	}
	return addedNodes, dels, adds
}

// TestApplyEdgesRandomEquivalence is the closure-layer equivalence
// quickcheck: over randomized graphs and patches, an incremental update
// that succeeds must be indistinguishable from a fresh Compute of the
// patched graph — and must leave the original index untouched.
func TestApplyEdgesRandomEquivalence(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 120
	}
	applied := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(24)
		g0 := deltaRandGraph(rng, n, rng.Intn(3*n))
		addedNodes, dels, adds := randomPatch(rng, g0)
		r0 := Compute(g0)
		before := reachMatrix(r0)

		nr, _, ok := r0.ApplyEdges(g0, addedNodes, dels, adds, 1<<30)

		// The receiver must be untouched either way.
		after := reachMatrix(r0)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("trial %d: ApplyEdges mutated the receiver", trial)
			}
		}
		if !ok {
			continue
		}
		applied++
		g2 := applyForTest(t, g0, addedNodes, dels, adds)
		want := Compute(g2)
		requireSameClosure(t, want, nr, fmt.Sprintf("trial %d", trial))
	}
	if applied < trials/4 {
		t.Fatalf("incremental path succeeded only %d/%d times — fallback too eager", applied, trials)
	}
}

func mustApplyEdges(t *testing.T, r *Reach, g0 *graph.Graph, addedNodes int, dels, adds [][2]graph.NodeID) (*Reach, *Delta) {
	t.Helper()
	nr, d, ok := r.ApplyEdges(g0, addedNodes, dels, adds, 1<<30)
	if !ok {
		t.Fatalf("ApplyEdges fell back unexpectedly")
	}
	return nr, d
}

func TestApplyEdgesMergeFallsBack(t *testing.T) {
	// 0 → 1 → 2; adding 2 → 0 closes a cycle and merges three SCCs.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := Compute(g)
	if _, _, ok := r.ApplyEdges(g, 0, nil, [][2]graph.NodeID{{2, 0}}, 1<<30); ok {
		t.Fatal("SCC-merging insert must fall back to rebuild")
	}
}

func TestApplyEdgesSplitFallsBack(t *testing.T) {
	// A 3-cycle; deleting one edge splits the SCC.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	r := Compute(g)
	if _, _, ok := r.ApplyEdges(g, 0, [][2]graph.NodeID{{1, 2}}, nil, 1<<30); ok {
		t.Fatal("SCC-splitting delete must fall back to rebuild")
	}
}

func TestApplyEdgesInternalDeleteKeepsSCC(t *testing.T) {
	// A 3-cycle with a chord 0→2 plus redundant 2→1: deleting 0→1 keeps
	// the SCC intact, so the update stays incremental and rows are
	// unchanged.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	r := Compute(g)
	nr, _ := mustApplyEdges(t, r, g, 0, [][2]graph.NodeID{{0, 1}}, nil)
	g2 := applyForTest(t, g, 0, [][2]graph.NodeID{{0, 1}}, nil)
	requireSameClosure(t, Compute(g2), nr, "internal delete")
}

func TestApplyEdgesSelfLoop(t *testing.T) {
	g := graph.New(2)
	g.AddNode("a")
	g.AddNode("b")
	g.AddEdge(0, 1)
	r := Compute(g)

	nr, _ := mustApplyEdges(t, r, g, 0, nil, [][2]graph.NodeID{{0, 0}})
	if !nr.Reachable(0, 0) {
		t.Fatal("self-loop add must make the node self-reaching")
	}
	g1 := applyForTest(t, g, 0, nil, [][2]graph.NodeID{{0, 0}})
	requireSameClosure(t, Compute(g1), nr, "self-loop add")

	// And removing it again on the patched state.
	nr2, _ := mustApplyEdges(t, nr, g1, 0, [][2]graph.NodeID{{0, 0}}, nil)
	g2 := applyForTest(t, g1, 0, [][2]graph.NodeID{{0, 0}}, nil)
	requireSameClosure(t, Compute(g2), nr2, "self-loop delete")
}

func TestApplyEdgesAddNodesAndWire(t *testing.T) {
	g := graph.New(2)
	g.AddNode("a")
	g.AddNode("b")
	g.AddEdge(0, 1)
	r := Compute(g)

	adds := [][2]graph.NodeID{{1, 2}, {2, 3}}
	nr, d := mustApplyEdges(t, r, g, 2, nil, adds)
	if d.AddedComps != 2 {
		t.Fatalf("AddedComps = %d, want 2", d.AddedComps)
	}
	g2 := applyForTest(t, g, 2, nil, adds)
	requireSameClosure(t, Compute(g2), nr, "node adds")
}

func TestApplyEdgesBudgetFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := deltaRandGraph(rng, 200, 400)
	r := Compute(g)
	// A budget of one unit cannot cover any real edge work.
	if _, _, ok := r.ApplyEdges(g, 0, nil, [][2]graph.NodeID{{0, 199}}, 1); ok {
		t.Fatal("unpayable budget must force fallback")
	}
}

func TestGrown(t *testing.T) {
	// Via the closure package's own dependency to keep the test near its
	// only consumer: growing within a word shares storage, past it copies.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode("x")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := Compute(g)
	nr, _, ok := r.ApplyEdges(g, 70, nil, [][2]graph.NodeID{{2, 3}}, 1<<30)
	if !ok {
		t.Fatal("node growth across a word boundary fell back")
	}
	if !nr.Reachable(0, 3) {
		t.Fatal("grown index lost reachability through the new node")
	}
	if r.NumNodes() != 3 || r.NumComponents() != 3 {
		t.Fatal("receiver mutated by growth")
	}
}
