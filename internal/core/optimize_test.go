package core

import (
	"testing"
	"testing/quick"

	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
)

// figure10a reproduces the Appendix B partitioning example (Fig. 10(a)):
// G1 is connected through a node C that has no admissible candidate;
// removing C splits G1 into three components.
func figure10a() (*graph.Graph, *graph.Graph, simmatrix.Matrix) {
	// G1: A→B, A→C, C→D, C→F, D→E, F→G  (C is the cut node).
	g1 := graph.FromEdgeList([]string{"A", "B", "C", "D", "E", "F", "G"},
		[][2]int{{0, 1}, {0, 2}, {2, 3}, {2, 5}, {3, 4}, {5, 6}})
	// G2 carries every label except C.
	g2 := graph.FromEdgeList([]string{"A", "B", "D", "E", "F", "G"},
		[][2]int{{0, 1}, {2, 3}, {4, 5}})
	return g1, g2, simmatrix.NewLabelEquality(g1, g2)
}

func TestPartitionedMaxCardFigure10a(t *testing.T) {
	g1, g2, mat := figure10a()
	in := NewInstance(g1, g2, mat, 0.5)
	m := in.PartitionedMaxCard()
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	// All nodes except C are matchable: 6 of 7.
	if len(m) != 6 {
		t.Fatalf("partitioned mapping covers %d, want 6 (σ=%v)", len(m), m)
	}
	if _, ok := m[2]; ok {
		t.Fatal("candidate-free node C must stay unmatched")
	}
}

func TestPartitionedMatchesDirectQuality(t *testing.T) {
	// Proposition 1: per-component optima union to a global optimum. The
	// approximation may differ from the direct run, but on these instances
	// both should produce valid mappings and the partitioned result should
	// not be worse than the direct one (it solves easier subproblems).
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 10)
		direct := compMaxCard(in)
		part := in.PartitionedMaxCard()
		if in.CheckMapping(part, false) != nil {
			return false
		}
		exact := oracle(in, false, (*product.Product).ExactMaxCardClique)
		return len(part) <= len(exact) && len(direct) <= len(exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedSingletonComponents(t *testing.T) {
	// Fully disconnected pattern: every component is a singleton and takes
	// its best candidate.
	g1 := graph.FromEdgeList([]string{"a", "b"}, nil)
	g2 := graph.FromEdgeList([]string{"a", "b"}, nil)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	m := in.PartitionedMaxCard()
	if len(m) != 2 {
		t.Fatalf("singleton components should all match, got %v", m)
	}
}

func TestPartitionedSingletonPicksBestScore(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"x"}, nil)
	g2 := graph.FromEdgeList([]string{"x1", "x2"}, nil)
	mat := simmatrix.NewSparse()
	mat.Set(0, 0, 0.6)
	mat.Set(0, 1, 0.9)
	in := NewInstance(g1, g2, mat, 0.5)
	m := in.PartitionedMaxCard()
	if m[0] != 1 {
		t.Fatalf("singleton should take the best candidate (node 1), got %v", m)
	}
}

func TestPartitionedMaxSimValid(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 10)
		m := in.PartitionedMaxSim()
		return in.CheckMapping(m, false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedMaxCardValid(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 12)
		m := in.CompressedMaxCard()
		return in.CheckMapping(m, false) == nil
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
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	m := in.CompressedMaxCard()
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
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	direct := compMaxCard(in)
	compressed := in.CompressedMaxCard()
	if len(direct) != len(compressed) {
		t.Fatalf("direct %v vs compressed %v", direct, compressed)
	}
}

func TestPartitionComponentsShareClosure(t *testing.T) {
	// The sub-instances reuse the parent's closure; validate by checking a
	// mapping found on a component against the parent instance.
	g1, g2, mat := figure10a()
	in := NewInstance(g1, g2, mat, 0.5)
	parts := in.partitionComponents()
	if len(parts) != 3 {
		t.Fatalf("components = %d, want 3", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.sub.G1.NumNodes()
	}
	if total != 6 {
		t.Fatalf("component nodes = %d, want 6 (C pruned)", total)
	}
}
