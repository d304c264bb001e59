package core

import (
	"context"
	"maps"
	"testing"
	"testing/quick"
	"time"

	"graphmatch/internal/trace"
)

// spanStats runs compMaxCard and reads its search counters where
// operators see them: the core.maxcard span in a trace.Recorder.
func spanStats(t *testing.T, in *Instance) (Mapping, map[string]int64) {
	t.Helper()
	rec := trace.NewRecorder(4, time.Hour)
	root := rec.StartTrace(trace.DeriveTraceID("stats"), "stats", "stats")
	m, err := in.CompMaxCardCtx(trace.ContextWithSpan(context.Background(), root))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range rec.Snapshot(1)[0].Spans {
		if sd.Name == "core.maxcard" {
			st := map[string]int64{}
			for _, a := range sd.Attrs {
				st[a.Key] = a.Int
			}
			return m, st
		}
	}
	t.Fatal("no core.maxcard span recorded")
	return nil, nil
}

// statsConsistent checks the ordering invariants between the counters
// and, when want is non-nil, pins them to want.
func statsConsistent(m Mapping, st, want map[string]int64) bool {
	ok := st["max_depth"] <= st["greedy_calls"] &&
		st["conflicts_removed"] <= st["initial_pairs"] &&
		st["augmented_pairs"] >= 0 && st["augmented_pairs"] <= int64(len(m))
	for k, v := range want {
		ok = ok && st[k] == v
	}
	if st["initial_pairs"] > 0 {
		return ok && st["greedy_calls"] > 0 && st["outer_iterations"] > 0 && st["max_depth"] > 0
	}
	return ok && st["greedy_calls"] == 0 && len(m) == 0
}

func counters(pairs, outer, calls, depth, conflicts, augmented int64) map[string]int64 {
	return map[string]int64{"initial_pairs": pairs, "outer_iterations": outer, "greedy_calls": calls,
		"max_depth": depth, "conflicts_removed": conflicts, "augmented_pairs": augmented}
}

func TestSearchStatsPopulated(t *testing.T) {
	in := example51()
	m, st := spanStats(t, in)
	if in.QualCard(m) != 1 {
		t.Fatalf("qualCard = %v", in.QualCard(m))
	}
	// initial_pairs is the product-graph size: books×2, textbooks, abooks.
	if !statsConsistent(m, st, counters(4, 1, 4, 3, 2, 0)) {
		t.Fatalf("counters %v for mapping %v", st, m)
	}
}

func TestSearchStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		m, st := spanStats(t, randomInstance(seed, 8, 12))
		return statsConsistent(m, st, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchStatsEmptyInstance(t *testing.T) {
	in := randomInstance(1, 3, 3)
	in.Xi = 1.1 // clamp is bypassed by direct assignment; no candidates
	if m, st := spanStats(t, in); !statsConsistent(m, st, counters(0, 0, 0, 0, 0, 0)) {
		t.Fatalf("counters %v for mapping %v", st, m)
	}
}

// TestSearchStatsSemanticsPreserved checks the counters are the same on
// a rerun and keep their pinned values.
func TestSearchStatsSemanticsPreserved(t *testing.T) {
	in := randomInstance(7, 8, 14)
	m1, s1 := spanStats(t, in)
	m2, s2 := spanStats(t, in)
	if !maps.Equal(s1, s2) || !sameMapping(m1, m2) {
		t.Fatalf("not deterministic: %v %v vs %v %v", m1, s1, m2, s2)
	}
	if !statsConsistent(m1, s1, counters(26, 1, 26, 9, 5, 0)) {
		t.Fatalf("counters %v for mapping %v", s1, m1)
	}
}

func TestPickOrderAblationBothValid(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 8, 10)
		m1 := compMaxCard(in)
		in.ArbitraryPick = true
		m2 := compMaxCard(in)
		return in.CheckMapping(m1, false) == nil && in.CheckMapping(m2, false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
