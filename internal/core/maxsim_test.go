package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
)

func TestCompMaxSimExample33(t *testing.T) {
	// Example 3.3's headline: under the similarity metric the optimal 1-1
	// mapping covers {A, v2} only, with qualSim = 0.7, although the
	// cardinality-optimal mapping covers four nodes.
	in, _, v2 := example33()
	m := compMaxSim11(in)
	if err := in.CheckMapping(m, true); err != nil {
		t.Fatal(err)
	}
	if got := in.QualSim(m); got < 0.699 || got > 0.701 {
		t.Fatalf("qualSim = %v, want 0.7 (σ=%v)", got, m)
	}
	if _, ok := m[v2]; !ok {
		t.Fatalf("σs should include the heavyweight v2; got %v", m)
	}
	// Cross-check against the exact optimum.
	exact := oracle(in, true, (*product.Product).ExactMaxSimClique)
	if got, want := in.QualSim(m), in.QualSim(exact); got < want-1e-9 {
		t.Fatalf("approximation %v below exact optimum %v", got, want)
	}
}

func TestCompMaxSimPrefersHeavyNodes(t *testing.T) {
	// Two disconnected pattern nodes compete for one data node; the
	// heavier one must win under qualSim.
	g1 := graph.FromEdgeList([]string{"x", "x"}, nil)
	g1.SetWeight(0, 1)
	g1.SetWeight(1, 10)
	g2 := graph.FromEdgeList([]string{"x"}, nil)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	m := compMaxSim11(in)
	if err := in.CheckMapping(m, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := m[1]; !ok {
		t.Fatalf("heavy node should be matched, got %v", m)
	}
}

func TestCompMaxSimValidityRandom(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 12)
		m := compMaxSim(in)
		if in.CheckMapping(m, false) != nil {
			return false
		}
		m11 := compMaxSim11(in)
		return in.CheckMapping(m11, true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxSimNeverBeatsExact(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 6, 8)
		// Random weights spread over an order of magnitude to exercise
		// the bucket partition.
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for v := 0; v < in.G1.NumNodes(); v++ {
			in.G1.SetWeight(graph.NodeID(v), 0.5+rng.Float64()*9.5)
		}
		exact := in.QualSim(oracle(in, false, (*product.Product).ExactMaxSimClique))
		exact11 := in.QualSim(oracle(in, true, (*product.Product).ExactMaxSimClique))
		return in.QualSim(compMaxSim(in)) <= exact+1e-9 && in.QualSim(compMaxSim11(in)) <= exact11+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxSimAtLeastAsGoodAsCardOnSim(t *testing.T) {
	// randomInstance is label equality with unit weights: every pair
	// weighs the same and each pick is the earliest candidate by ID, as
	// in compMaxCard. runSim's one bucket is the whole list, so it makes
	// compMaxCard's run, and its qualSim cannot fall below compMaxCard's.
	f := func(seed int64) bool {
		in := randomInstance(seed, 7, 10)
		simQ := in.QualSim(compMaxSim(in))
		cardQ := in.QualSim(compMaxCard(in))
		return simQ >= cardQ-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompMaxSimUniformWeightsFigure1(t *testing.T) {
	gp, g, mate := figure1()
	in := NewInstance(gp, g, mate, 0.5)
	m := compMaxSim(in)
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	// Full mapping exists; with uniform weights qualSim is maximised by
	// the best-scoring full assignment: (0.7+1.0+0.7+0.6+0.8+0.85)/6.
	want := (0.7 + 1.0 + 0.7 + 0.6 + 0.8 + 0.85) / 6
	if got := in.QualSim(m); got < want-1e-9 {
		t.Fatalf("qualSim = %v, want ≥ %v", got, want)
	}
}

func TestCompMaxSimEmptyPattern(t *testing.T) {
	g1 := graph.New(0)
	g2 := graph.FromEdgeList([]string{"x"}, nil)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	if m := compMaxSim(in); len(m) != 0 {
		t.Fatalf("empty pattern should yield empty mapping, got %v", m)
	}
}

func TestNaiveMaxSimValid(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := randomInstance(seed, 6, 8)
		for _, inj := range []bool{false, true} {
			if err := in.CheckMapping(oracle(in, inj, (*product.Product).MaxSimClique), inj); err != nil {
				t.Fatalf("seed %d injective=%v: %v", seed, inj, err)
			}
		}
	}
}

func TestNaiveMaxCard11Valid(t *testing.T) {
	for seed := int64(20); seed < 35; seed++ {
		in := randomInstance(seed, 6, 8)
		if err := in.CheckMapping(oracle(in, true, (*product.Product).MaxCardClique), true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMatchesConvention(t *testing.T) {
	gp, g, mate := figure1()
	in := NewInstance(gp, g, mate, 0.5)
	m := compMaxCard(in)
	if !Matches(in, m, MetricCard, 0.75) {
		t.Error("full mapping should match at threshold 0.75 under qualCard")
	}
	if Matches(in, Mapping{}, MetricCard, 0.75) {
		t.Error("empty mapping should not match")
	}
	if MetricCard.String() != "qualCard" || MetricSim.String() != "qualSim" {
		t.Error("metric names wrong")
	}
	if Metric(99).String() != "unknown" {
		t.Error("unknown metric name wrong")
	}
	if Matches(in, m, Metric(99), 0.1) {
		t.Error("unknown metric should never match")
	}
}
