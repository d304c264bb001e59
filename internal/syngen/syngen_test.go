package syngen

import (
	"context"
	"testing"

	"graphmatch/internal/core"
	"graphmatch/internal/graph"
)

func TestGenerateSizes(t *testing.T) {
	w := Generate(Config{M: 100, NoisePercent: 10, Seed: 1})
	if w.G1.NumNodes() != 100 {
		t.Fatalf("|V1| = %d, want 100", w.G1.NumNodes())
	}
	if w.G1.NumEdges() != 400 {
		t.Fatalf("|E1| = %d, want 400", w.G1.NumEdges())
	}
	if len(w.G2s) != 15 {
		t.Fatalf("data graphs = %d, want 15", len(w.G2s))
	}
	for i, g2 := range w.G2s {
		if g2.NumNodes() < 100 {
			t.Fatalf("G2[%d] smaller than G1", i)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(Config{M: 50, NoisePercent: 15, Seed: 7})
	b := Generate(Config{M: 50, NoisePercent: 15, Seed: 7})
	if !graph.Equal(a.G1, b.G1) {
		t.Fatal("same seed must generate the same pattern")
	}
	for i := range a.G2s {
		if !graph.Equal(a.G2s[i], b.G2s[i]) {
			t.Fatalf("same seed must generate the same data graph %d", i)
		}
	}
	if a.LabelSimilarity("l1", "l2") != b.LabelSimilarity("l1", "l2") {
		t.Fatal("label similarity must be deterministic")
	}
	c := Generate(Config{M: 50, NoisePercent: 15, Seed: 8})
	if graph.Equal(a.G1, c.G1) {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

func TestNoSelfLoopsInPattern(t *testing.T) {
	w := Generate(Config{M: 80, NoisePercent: 20, Seed: 3})
	w.G1.Edges(func(from, to graph.NodeID) bool {
		if from == to {
			t.Fatalf("pattern has self-loop at %d", from)
		}
		return true
	})
}

func TestNoiseZeroKeepsGraphIdentical(t *testing.T) {
	w := Generate(Config{M: 40, NoisePercent: 0, Seed: 5})
	for _, g2 := range w.G2s {
		if g2.NumNodes() != 40 || g2.NumEdges() != w.G1.NumEdges() {
			t.Fatalf("noise 0 should copy the pattern: %s vs %s", g2, w.G1)
		}
	}
}

func TestNoiseGrowsGraph(t *testing.T) {
	w := Generate(Config{M: 100, NoisePercent: 20, Seed: 9})
	grew := 0
	for _, g2 := range w.G2s {
		if g2.NumNodes() > 100 {
			grew++
		}
	}
	if grew < len(w.G2s)-1 {
		t.Fatalf("20%% noise should grow nearly all data graphs, grew %d/%d", grew, len(w.G2s))
	}
}

func TestGroundTruthMappingValid(t *testing.T) {
	// The recorded embedding must be a valid full 1-1 p-hom mapping: by
	// construction every pattern edge survives as an edge or path.
	w := Generate(Config{M: 60, NoisePercent: 30, Seed: 11})
	for i, g2 := range w.G2s[:5] {
		in := core.NewInstance(w.G1, g2, w.Matrix(g2), 0.75)
		m := core.Mapping{}
		for v, u := range w.Truth[i] {
			m[graph.NodeID(v)] = u
		}
		if err := in.CheckMapping(m, true); err != nil {
			t.Fatalf("G2[%d]: ground truth mapping invalid: %v", i, err)
		}
		if in.QualCard(m) != 1 {
			t.Fatalf("G2[%d]: ground truth not full", i)
		}
	}
}

func TestNodeIDsCarryNoSignal(t *testing.T) {
	// The ground-truth embedding must not be the identity prefix — data
	// node IDs are shuffled.
	w := Generate(Config{M: 50, NoisePercent: 10, Seed: 19})
	identity := 0
	for v, u := range w.Truth[0] {
		if graph.NodeID(v) == u {
			identity++
		}
	}
	if identity > 25 {
		t.Fatalf("%d/50 ground-truth pairs are identity — IDs leak the embedding", identity)
	}
}

func TestLabelSimilarityModel(t *testing.T) {
	w := Generate(Config{M: 100, NoisePercent: 10, Seed: 13})
	if w.LabelSimilarity("l5", "l5") != 1 {
		t.Error("identical labels must score 1")
	}
	// Group size is √500 ≈ 22: l0 and l1 share group 0; l0 and l499 don't.
	if got := w.LabelSimilarity("l0", "l499"); got != 0 {
		t.Errorf("cross-group similarity = %v, want 0", got)
	}
	s := w.LabelSimilarity("l0", "l1")
	if s < 0 || s > 1 {
		t.Errorf("in-group similarity out of range: %v", s)
	}
	if w.LabelSimilarity("l0", "l1") != w.LabelSimilarity("l1", "l0") {
		t.Error("label similarity must be symmetric")
	}
	if w.LabelSimilarity("l0", "unknown") != 0 {
		t.Error("unknown labels must score 0")
	}
}

func TestAlgorithmsFindMatchOnLowNoise(t *testing.T) {
	// End-to-end sanity: at low noise the approximation algorithms should
	// reach the 0.75 match bar on most data graphs.
	w := Generate(Config{M: 40, NoisePercent: 5, NumData: 5, Seed: 17})
	matched := 0
	for _, g2 := range w.G2s {
		in := core.NewInstance(w.G1, g2, w.Matrix(g2), 0.75)
		m, _ := in.CompMaxCardCtx(context.Background())
		if err := in.CheckMapping(m, false); err != nil {
			t.Fatal(err)
		}
		if in.QualCard(m) >= 0.75 {
			matched++
		}
	}
	if matched < 3 {
		t.Fatalf("only %d/5 matched at 5%% noise", matched)
	}
}

func TestSmallM(t *testing.T) {
	w := Generate(Config{M: 2, NoisePercent: 50, NumData: 2, Seed: 1})
	if w.G1.NumNodes() != 2 {
		t.Fatalf("tiny pattern size = %d", w.G1.NumNodes())
	}
	// Edge cap: 2 nodes allow at most 2 directed edges.
	if w.G1.NumEdges() > 2 {
		t.Fatalf("tiny pattern edges = %d", w.G1.NumEdges())
	}
}
