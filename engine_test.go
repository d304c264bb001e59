package graphmatch

import (
	"context"
	"testing"
)

// TestEngineAgreesWithMatcher drives the public serving API against the
// public one-shot API on the paper's Figure 1 instance: for every
// algorithm the engine must return exactly what a direct Matcher does.
func TestEngineAgreesWithMatcher(t *testing.T) {
	gp, g, mat := fig1()
	_ = mat // the engine derives its own matrix; fig1 uses label equality semantics

	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()
	if err := eng.Register(context.Background(), "store", g); err != nil {
		t.Fatal(err)
	}

	m := NewMatcher(gp, g, LabelEquality(gp, g), 0.9)
	direct := map[EngineAlgorithm]Mapping{
		AlgoMaxCard:   m.MaxCard(),
		AlgoMaxCard11: m.MaxCard11(),
		AlgoMaxSim:    m.MaxSim(),
		AlgoMaxSim11:  m.MaxSim11(),
	}
	ctx := context.Background()
	for algo, want := range direct {
		res := eng.Match(ctx, MatchRequest{Pattern: gp, GraphName: "store", Algo: algo, Xi: 0.9})
		if res.Err != nil {
			t.Fatalf("%s: %v", algo, res.Err)
		}
		if len(res.Mapping) != len(want) {
			t.Errorf("%s: engine mapped %d nodes, Matcher %d", algo, len(res.Mapping), len(want))
		}
		for v, u := range want {
			if res.Mapping[v] != u {
				t.Errorf("%s: σ(%d) = %d, Matcher says %d", algo, v, res.Mapping[v], u)
			}
		}
		if got, want := res.QualCard, m.QualCard(want); got != want {
			t.Errorf("%s: qualCard %v, Matcher %v", algo, got, want)
		}
		if err := m.Verify(res.Mapping, algo == AlgoMaxCard11 || algo == AlgoMaxSim11); err != nil {
			t.Errorf("%s: engine mapping invalid: %v", algo, err)
		}
	}

	// Exact decision through the engine vs the Matcher.
	res := eng.Match(ctx, MatchRequest{Pattern: gp, GraphName: "store", Algo: AlgoDecide, Xi: 0.9})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	_, holds := m.IsPHom()
	if res.Holds != holds {
		t.Errorf("decide: engine %v, Matcher %v", res.Holds, holds)
	}

	// The registered closure was shared: hits must outnumber the single
	// registration miss.
	s := eng.Catalog().Stats()
	if s.Misses != 1 || s.Hits < 4 {
		t.Errorf("closure cache not shared: %+v", s)
	}
}

// TestEngineBatch exercises MatchBatch through the public API.
func TestEngineBatch(t *testing.T) {
	gp, g, _ := fig1()
	eng := NewEngine(EngineOptions{})
	defer eng.Close()
	if err := eng.Register(context.Background(), "store", g); err != nil {
		t.Fatal(err)
	}
	reqs := []MatchRequest{
		{Pattern: gp, GraphName: "store", Algo: AlgoMaxCard, Xi: 0.9},
		{Pattern: gp, GraphName: "store", Algo: AlgoMaxSim, Xi: 0.9},
		{Pattern: gp, GraphName: "store", Algo: AlgoSimulation, Xi: 0.9},
	}
	results := eng.MatchBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("request %d: %v", i, r.Err)
		}
	}
	if st := eng.Stats(); st.Batches != 1 || st.Requests != 3 {
		t.Errorf("engine stats %+v", st)
	}
}
