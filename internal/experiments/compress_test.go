package experiments

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// randomGraph draws n nodes over labels and m random edges (self-loops
// and cycles included).
func randomGraph(rng *rand.Rand, labels []string, n, m int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

func TestCompressBasics(t *testing.T) {
	// Figure 10(b)-style: B→A, A→C, A→D, C→D, D→C. SCC {C,D} collapses.
	g := graph.FromEdgeList([]string{"B", "A", "C", "D"},
		[][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 2}})
	c := Compress(g)
	if c.Star.NumNodes() != 3 {
		t.Fatalf("compressed nodes = %d, want 3", c.Star.NumNodes())
	}
	// The CD bag must have a self-loop and two members.
	cd := c.Comp[2]
	if c.Star.Label(graph.NodeID(cd)) != "C|D" {
		t.Errorf("bag label = %q, want C|D", c.Star.Label(graph.NodeID(cd)))
	}
	if !c.Star.HasEdge(graph.NodeID(cd), graph.NodeID(cd)) {
		t.Error("bag node missing self-loop")
	}
	if len(c.Members[cd]) != 2 {
		t.Errorf("bag members = %v, want 2", c.Members[cd])
	}
}

func TestCompressPreservesReachability(t *testing.T) {
	// Property: u ⇝ v in G2 (nonempty) iff Comp[u] → Comp[v] edge in Star.
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), []string{"a", "b", "c"}, 14, 30)
		r := closure.Compute(g)
		c := Compress(g)
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := r.Reachable(graph.NodeID(u), graph.NodeID(v))
				got := c.Star.HasEdge(graph.NodeID(c.Comp[u]), graph.NodeID(c.Comp[v]))
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressCapacitiesCoverAllNodes(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), []string{"a", "b", "c"}, 40, 100)
	c := Compress(g)
	total := 0
	for _, m := range c.Members {
		total += len(m)
	}
	if total != g.NumNodes() {
		t.Fatalf("bag sizes sum to %d, want %d", total, g.NumNodes())
	}
	for v := 0; v < g.NumNodes(); v++ {
		found := false
		for _, m := range c.Members[c.Comp[v]] {
			if m == graph.NodeID(v) {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d missing from its component members", v)
		}
	}
}

func TestCompressedMaxCardValid(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1, g2 := randomGraph(rng, labels, 8, 16), randomGraph(rng, labels, 12, 24)
		in := core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
		return in.CheckMapping(CompressedMaxCard(in), false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedMaxCardOnCyclicData(t *testing.T) {
	// Pattern chain a→b→c against a data 3-cycle with matching labels:
	// the whole cycle is one SCC, so the compressed data graph has one bag
	// node, and all three pattern nodes map into it.
	g1 := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	g2 := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	in := core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	m := CompressedMaxCard(in)
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("compressed matching covers %d, want 3 (σ=%v)", len(m), m)
	}
}

func TestCompressedMatchesDirectOnDAGs(t *testing.T) {
	// On a DAG every SCC is trivial, so compression is the identity and
	// the compressed run must find a mapping of the same cardinality.
	g1 := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {0, 2}})
	g2 := graph.FromEdgeList([]string{"a", "x", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {0, 3}})
	in := core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	direct, _ := in.CompMaxCardCtx(context.Background())
	compressed := CompressedMaxCard(in)
	if len(direct) != len(compressed) {
		t.Fatalf("direct %v vs compressed %v", direct, compressed)
	}
}
