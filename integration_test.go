package graphmatch

// Cross-module integration tests: these exercise the full pipelines the
// way cmd/experiments and the examples do — generator → skeleton/matrix →
// matcher → metric — and pin the paper's qualitative findings at test
// scale.

import (
	"context"
	"testing"
	"time"

	"graphmatch/internal/core"
	"graphmatch/internal/experiments"
	"graphmatch/internal/graph"
	"graphmatch/internal/mcs"
	"graphmatch/internal/reduction"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

func TestIntegrationWebMirrorPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	arch := webgen.Generate(webgen.Config{Category: webgen.Organization, Pages: 800, Versions: 5, Seed: 3})
	pattern := webgen.Skeleton(arch.Versions[0], 0.2)
	for i, snap := range arch.Versions[1:] {
		data := webgen.Skeleton(snap, 0.2)
		mat := ContentSimilarity(pattern, data, 4)
		m := NewMatcher(pattern, data, mat, 0.75)
		sigma := m.MaxCard()
		if err := m.Verify(sigma, false); err != nil {
			t.Fatalf("version %d: %v", i+1, err)
		}
		if q := m.QualCard(sigma); q < 0.75 {
			t.Errorf("version %d: organization archive should mirror, qualCard = %v", i+1, q)
		}
	}
}

func TestIntegrationSyntheticPipeline(t *testing.T) {
	w := syngen.Generate(syngen.Config{M: 60, NoisePercent: 10, NumData: 6, Seed: 5})
	matched := 0
	for i, g2 := range w.G2s {
		m := NewMatcher(w.G1, g2, w.Matrix(g2), 0.75)
		sigma := m.MaxCard()
		if err := m.Verify(sigma, false); err != nil {
			t.Fatalf("data %d: %v", i, err)
		}
		if m.QualCard(sigma) >= 0.75 {
			matched++
		}
		// Ground truth always exists and validates.
		truth := Mapping{}
		for v, u := range w.Truth[i] {
			truth[NodeID(v)] = u
		}
		if err := m.Verify(truth, true); err != nil {
			t.Fatalf("data %d: ground truth invalid: %v", i, err)
		}
	}
	if matched < 4 {
		t.Errorf("matched %d/6 at low noise, want ≥ 4", matched)
	}
}

func TestIntegrationPHomDominatesBaselines(t *testing.T) {
	// On the edge-to-path workload, p-hom must match where simulation
	// cannot and MCS struggles — the paper's Table 3 story at unit scale.
	w := syngen.Generate(syngen.Config{M: 25, NoisePercent: 25, NumData: 6, Seed: 9})
	phom, sim, mcsWins := 0, 0, 0
	for _, g2 := range w.G2s {
		mat := w.Matrix(g2)
		m := NewMatcher(w.G1, g2, mat, 0.75)
		if m.QualCard(m.MaxCard()) >= 0.75 {
			phom++
		}
		if Simulates(w.G1, g2, mat, 0.75) {
			sim++
		}
		res, err := mcs.Find(w.G1, g2, mat, mcs.Options{Xi: 0.75, Budget: 300 * time.Millisecond})
		if err == nil && float64(res.Cardinality())/float64(w.G1.NumNodes()) >= 0.75 {
			mcsWins++
		}
	}
	if phom < sim {
		t.Errorf("p-hom matched %d but simulation %d on path-noise data", phom, sim)
	}
	if phom < mcsWins {
		t.Errorf("p-hom matched %d but MCS %d on path-noise data", phom, mcsWins)
	}
	if phom == 0 {
		t.Error("p-hom should match at least one data graph")
	}
}

func TestIntegrationReductionToMatcher(t *testing.T) {
	// The hardness constructions flow through the public pipeline too.
	f := &reduction.ThreeSAT{
		NumVars: 4,
		Clauses: []reduction.Clause{
			{{Var: 0}, {Var: 1, Neg: true}, {Var: 2}},
			{{Var: 1, Neg: true}, {Var: 2}, {Var: 3}},
		},
	}
	r, err := reduction.FromThreeSAT(f)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(r.G1, r.G2, r.Mat, r.Xi)
	m, ok, _ := in.DecideCtx(context.Background())
	if !ok {
		t.Fatal("satisfiable instance must be p-hom")
	}
	if !f.Evaluate(r.AssignmentFromMapping(m)) {
		t.Fatal("decoded assignment must satisfy")
	}
}

func TestIntegrationExperimentHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	pt := experiments.RunSynthetic(experiments.SynConfig{M: 30, Noise: 10, NumData: 3, Seed: 2})
	for _, alg := range experiments.OurAlgorithms {
		if pt.Seconds[alg] <= 0 {
			t.Errorf("%s: no time recorded", alg)
		}
	}
	cfg := experiments.WebConfig{Pages: [3]int{400, 300, 300}, Versions: 3, Seed: 4, MCSBudget: 100 * time.Millisecond}
	sites := experiments.GenerateSites(cfg)
	rows := experiments.Table2(sites)
	if len(rows) != 3 {
		t.Fatalf("table 2 rows = %d", len(rows))
	}
}

func TestIntegrationJSONRoundTripThroughMatcher(t *testing.T) {
	g1 := FromEdgeList([]string{"a", "b"}, [][2]int{{0, 1}})
	data, err := g1.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	g2 := graph.New(0)
	if err := g2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	if q := m.QualCard(m.MaxCard()); q != 1 {
		t.Fatalf("round-tripped graph should self-match, qualCard = %v", q)
	}
}

func TestIntegrationPathLimitOption(t *testing.T) {
	g1 := FromEdgeList([]string{"a", "c"}, [][2]int{{0, 1}})
	g2 := FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	mat := LabelEquality(g1, g2)
	if _, ok := NewMatcher(g1, g2, mat, 0.5, WithPathLimit(1)).IsPHom(); ok {
		t.Fatal("path limit 1 must reject path-only data")
	}
	if _, ok := NewMatcher(g1, g2, mat, 0.5, WithPathLimit(2)).IsPHom(); !ok {
		t.Fatal("path limit 2 must accept a 2-hop path")
	}
	if _, ok := NewMatcher(g1, g2, mat, 0.5).IsPHom(); !ok {
		t.Fatal("unbounded must accept")
	}
}
