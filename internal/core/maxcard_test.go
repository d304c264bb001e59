package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
)

// randomInstance builds a small random instance with a handful of labels,
// so that label-equality candidates are plentiful but not universal.
func randomInstance(seed int64, n1, n2 int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	g1 := graph.New(n1)
	for i := 0; i < n1; i++ {
		g1.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < n1*2; i++ {
		g1.AddEdge(graph.NodeID(rng.Intn(n1)), graph.NodeID(rng.Intn(n1)))
	}
	g1.Finish()
	g2 := graph.New(n2)
	for i := 0; i < n2; i++ {
		g2.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < n2*2; i++ {
		g2.AddEdge(graph.NodeID(rng.Intn(n2)), graph.NodeID(rng.Intn(n2)))
	}
	g2.Finish()
	return NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
}

func TestCompMaxCardExample51(t *testing.T) {
	in := example51()
	m := compMaxCard(in)
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	if got := in.QualCard(m); got != 1 {
		t.Fatalf("qualCard = %v, want 1 (mapping %v)", got, m)
	}
	// The walkthrough's final mapping: books→books, textbooks→school,
	// abooks→audiobooks.
	want := Mapping{0: 0, 1: 3, 2: 4}
	for v, u := range want {
		if m[v] != u {
			t.Fatalf("mapping = %v, want %v", m, want)
		}
	}
}

func TestCompMaxCardFigure1Full(t *testing.T) {
	gp, g, mate := figure1()
	in := NewInstance(gp, g, mate, 0.5)
	m := compMaxCard(in)
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	if in.QualCard(m) != 1 {
		t.Fatalf("Fig. 1 pattern should match fully, got qualCard %v (σ=%v)", in.QualCard(m), m)
	}
	m11 := compMaxCard11(in)
	if err := in.CheckMapping(m11, true); err != nil {
		t.Fatal(err)
	}
	if in.QualCard(m11) != 1 {
		t.Fatalf("Fig. 1 1-1 should match fully, got %v", in.QualCard(m11))
	}
}

func TestCompMaxCardFigure2Pair1(t *testing.T) {
	g1, g2, mat := figure2pair1()
	in := NewInstance(g1, g2, mat, 0.5)
	m := compMaxCard(in)
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("p-hom mapping should cover all 3 nodes, got %v", m)
	}
	// 1-1: only one A available, so at most 2 of 3 nodes.
	m11 := compMaxCard11(in)
	if err := in.CheckMapping(m11, true); err != nil {
		t.Fatal(err)
	}
	if len(m11) != 2 {
		t.Fatalf("1-1 mapping should cover 2 nodes, got %v", m11)
	}
}

func TestCompMaxCardExample33Cardinality(t *testing.T) {
	in, v1, v2 := example33()
	m := compMaxCard11(in)
	if err := in.CheckMapping(m, true); err != nil {
		t.Fatal(err)
	}
	if got := in.QualCard(m); got != 0.8 {
		t.Fatalf("qualCard = %v, want 0.8 (σ=%v)", got, m)
	}
	// The cardinality-optimal mapping uses the lightweight v1, not v2.
	if _, ok := m[v1]; !ok {
		t.Errorf("σc should include v1; got %v", m)
	}
	if _, ok := m[v2]; ok {
		t.Errorf("σc should exclude v2; got %v", m)
	}
	// Its overall similarity is the paper's 0.36.
	if got := in.QualSim(m); got < 0.359 || got > 0.361 {
		t.Errorf("qualSim(σc) = %v, want 0.36", got)
	}
}

func TestCompMaxCardValidityRandom(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 12)
		m := compMaxCard(in)
		if in.CheckMapping(m, false) != nil {
			return false
		}
		m11 := compMaxCard11(in)
		return in.CheckMapping(m11, true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxCardNeverBeatsExact(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 6, 8)
		return len(compMaxCard(in)) <= len(oracle(in, false, (*product.Product).ExactMaxCardClique)) &&
			len(compMaxCard11(in)) <= len(oracle(in, true, (*product.Product).ExactMaxCardClique))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxCardAgainstNaiveOnSmallInstances(t *testing.T) {
	// compMaxCard simulates ISRemoval on the product graph
	// (Proposition 5.2); both must return valid mappings, and neither may
	// exceed the exact optimum. Their sizes can differ by tie-breaking, so
	// compare both to the optimum rather than to each other.
	for seed := int64(0); seed < 20; seed++ {
		in := randomInstance(seed, 6, 8)
		exact := oracle(in, false, (*product.Product).ExactMaxCardClique)
		for kind, m := range map[string]Mapping{
			"direct": compMaxCard(in), "naive": oracle(in, false, (*product.Product).MaxCardClique),
		} {
			if err := in.CheckMapping(m, false); err != nil {
				t.Fatalf("seed %d: %s invalid: %v", seed, kind, err)
			}
			if len(m) > len(exact) {
				t.Fatalf("seed %d: %s exceeds optimum", seed, kind)
			}
		}
	}
}

func TestCompMaxCard11NeverExceedsPlain(t *testing.T) {
	// A 1-1 mapping is a p-hom mapping, so the exact 1-1 optimum is ≤ the
	// exact plain optimum; sanity-check the approximations stay ordered
	// against their own exact counterparts (checked above) and against
	// instance size.
	f := func(seed int64) bool {
		in := randomInstance(seed, 7, 9)
		m := compMaxCard(in)
		m11 := compMaxCard11(in)
		return len(m) <= in.G1.NumNodes() && len(m11) <= in.G1.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxCardFindsFullMappingWhenDecideDoes(t *testing.T) {
	// When the pattern embeds fully, the exact optimum is |V1|. The
	// approximation may fall short in principle, but on identity instances
	// (G2 = G1) it should find the full mapping.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		labels := make([]string, n)
		for i := range labels {
			labels[i] = string(rune('a' + i)) // unique labels
		}
		var edges [][2]int
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		g1 := graph.FromEdgeList(labels, edges)
		g2 := g1.Clone()
		in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
		m := compMaxCard(in)
		return in.QualCard(m) == 1 && in.CheckMapping(m, false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxCardEmptyCandidates(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"x"}, nil)
	g2 := graph.FromEdgeList([]string{"y"}, nil)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	if m := compMaxCard(in); len(m) != 0 {
		t.Fatalf("no candidates should yield empty mapping, got %v", m)
	}
}

func TestCompMaxCardDisconnectedPattern(t *testing.T) {
	// Two disconnected pattern edges match two disjoint data regions.
	g1 := graph.FromEdgeList([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {2, 3}})
	g2 := graph.FromEdgeList([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {2, 3}})
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	m := compMaxCard(in)
	if in.QualCard(m) != 1 {
		t.Fatalf("disconnected pattern should match fully, got %v", m)
	}
}

func TestMappingHelpers(t *testing.T) {
	m := Mapping{3: 7, 1: 7}
	if m.Injective() {
		t.Error("duplicate image should not be injective")
	}
	dom := m.Domain()
	if len(dom) != 2 || dom[0] != 1 || dom[1] != 3 {
		t.Errorf("Domain = %v", dom)
	}
	if s := m.String(); s != "{1→7, 3→7}" {
		t.Errorf("String = %q", s)
	}
	c := m.Clone()
	c[5] = 1
	if len(m) != 2 {
		t.Error("Clone not independent")
	}
}

func TestMetrics(t *testing.T) {
	gp, g, mate := figure1()
	in := NewInstance(gp, g, mate, 0.5)
	full, ok := decide(in)
	if !ok {
		t.Fatal("setup: expected full mapping")
	}
	if in.QualCard(full) != 1 {
		t.Error("full mapping qualCard should be 1")
	}
	// qualSim of the full mapping: Σ mat / 6 with uniform weights =
	// (0.7 + 1.0 + 0.7 + 0.6 + 0.8 + 0.85) / 6.
	want := (0.7 + 1.0 + 0.7 + 0.6 + 0.8 + 0.85) / 6
	if got := in.QualSim(full); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("qualSim = %v, want %v", got, want)
	}
	if in.QualCard(Mapping{}) != 0 {
		t.Error("empty mapping qualCard should be 0")
	}
}
