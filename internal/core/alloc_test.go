//go:build !race

package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Allocation regression tests for the greedyMatch hot path. The free
// lists make steady-state recursion allocation-free: once the pools are
// warm, a full greedyMatch round — every greedyMatchAt recursion step,
// its list partitions, trims and result buffers — must not touch the
// heap. Excluded under -race, where the detector's instrumentation
// perturbs allocation accounting.

// warmGreedy runs enough rounds to fill every pool to its steady-state
// size (buffer capacities grow monotonically and the recursion is
// deterministic, so a few rounds suffice).
func warmGreedy(mx *matcher, h *matchList) {
	for i := 0; i < 5; i++ {
		s, c := mx.greedyMatch(h)
		mx.putPairs(s)
		mx.putPairs(c)
	}
}

func TestGreedyMatchAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		injective bool
	}{
		{"maxcard", false},
		{"maxcard11", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := randomInstance(3, 12, 120)
			mx := in.newMatcher(tc.injective, false)
			h := mx.initialList()
			if len(h.nodes) == 0 {
				t.Fatal("degenerate fixture: empty matching list")
			}
			warmGreedy(mx, h)
			avg := testing.AllocsPerRun(50, func() {
				s, c := mx.greedyMatch(h)
				mx.putPairs(s)
				mx.putPairs(c)
			})
			if avg != 0 {
				t.Fatalf("steady-state greedyMatch allocates %.2f allocs/run, want 0", avg)
			}
		})
	}
}

func TestGreedyMatchAllocationFreePickBest(t *testing.T) {
	// The compMaxSim pick path additionally walks the node's
	// weight-ordered candidates for the heaviest pair still in its good
	// set; the recursion must still be allocation-free.
	in := weightedRandomInstance(5, 10, 90)
	mx := in.newMatcher(false, true)
	h := mx.initialList()
	if len(h.nodes) == 0 {
		t.Fatal("degenerate fixture: empty matching list")
	}
	warmGreedy(mx, h)
	avg := testing.AllocsPerRun(50, func() {
		s, c := mx.greedyMatch(h)
		mx.putPairs(s)
		mx.putPairs(c)
	})
	if avg != 0 {
		t.Fatalf("steady-state pickBest greedyMatch allocates %.2f allocs/run, want 0", avg)
	}
}

// TestMaxSimHoldsNoPerNodeRows bounds what a similarity match allocates
// on a 2 000-node data graph. Pair weights live with the candidate lists,
// so a whole match must stay below what one |V2|-long weight row per
// pattern node would cost on its own.
func TestMaxSimHoldsNoPerNodeRows(t *testing.T) {
	const n1, n2 = 12, 2000
	rng := rand.New(rand.NewSource(9))
	g2 := graph.New(n2)
	for i := 0; i < n2; i++ {
		g2.AddNode(fmt.Sprintf("l%d", rng.Intn(64)))
	}
	for i := 0; i < 4*n2; i++ {
		g2.AddEdge(graph.NodeID(rng.Intn(n2)), graph.NodeID(rng.Intn(n2)))
	}
	g2.Finish()
	keep := make([]graph.NodeID, n1)
	for i := range keep {
		keep[i] = graph.NodeID(rng.Intn(n2))
	}
	g1, _ := g2.InducedSubgraph(keep)
	reach := closure.Compute(g2)
	idx := closure.NewCompIndex(reach)
	match := func() {
		in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		if m := compMaxSim(in); len(m) == 0 {
			t.Fatal("degenerate fixture: nothing matched")
		}
	}
	match()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		match()
	}
	runtime.ReadMemStats(&after)
	perMatch := (after.TotalAlloc - before.TotalAlloc) / runs
	if rows := uint64(n1 * n2 * 8); perMatch >= rows {
		t.Fatalf("one maxsim match allocates %d B; per-node weight rows alone would be %d B", perMatch, rows)
	}
}

// parentPointLabelAllocs is what one point_label-shaped request
// allocated on average (the four-algorithm rotation over the 40
// patterns of pointLabelInstances, measured as below) while every
// request built its matcher's free lists from scratch.
const parentPointLabelAllocs = 830

// TestPointLabelAllocCeiling holds a warm request, one whose scratch
// comes from the pool, to a quarter of that.
func TestPointLabelAllocCeiling(t *testing.T) {
	ins := pointLabelInstances(40)
	ctx := context.Background()
	total := 0.0
	for _, e := range compEntries {
		for _, in := range ins {
			run := func() {
				if _, err := e.run(in, ctx); err != nil {
					t.Fatal(err)
				}
			}
			run() // the cold first request
			total += testing.AllocsPerRun(3, run)
		}
	}
	avg := total / float64(len(compEntries)*len(ins))
	t.Logf("%.1f allocs per warm point_label request", avg)
	if ceiling := parentPointLabelAllocs / 4.0; avg > ceiling {
		t.Fatalf("a warm point_label request allocates %.1f times, want ≤ %.1f", avg, ceiling)
	}
}
