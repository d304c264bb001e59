package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
)

// rowMaxima is the tightest per-node input QualityBound accepts: each
// pattern node's largest score against any data node.
func rowMaxima(in *Instance) []float64 {
	ub := make([]float64, in.G1.NumNodes())
	for v := range ub {
		for u := 0; u < in.G2.NumNodes(); u++ {
			ub[v] = max(ub[v], in.Mat.Score(graph.NodeID(v), graph.NodeID(u)))
		}
	}
	return ub
}

// TestQualityBoundAdmissible is the quickcheck behind search's early
// stop: on TestExactSolversAgree's instances, under label equality (at
// its ξ and at ξ = 1) and under a matrix of fractional scores (where
// float rounding could bite, and ξ is one of the scores),
// no mapping any algorithm returns — greedy, exact optimum or decision
// witness — has a quality above the bound built from the rows' exact
// maxima. The comparison is exact, with no tolerance.
func TestQualityBoundAdmissible(t *testing.T) {
	tight := 0
	for _, size := range [][2]int{{3, 6}, {4, 8}, {5, 8}, {6, 8}, {4, 12}} {
		for seed := int64(0); seed < 60; seed++ {
			in := randomInstance(seed, size[0], size[1])
			rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
			for v := 0; v < in.G1.NumNodes(); v++ {
				in.G1.SetWeight(graph.NodeID(v), 0.5+rng.Float64()*9.5)
			}
			frac := simmatrix.NewDense(in.G1.NumNodes(), in.G2.NumNodes())
			for v := 0; v < in.G1.NumNodes(); v++ {
				for u := 0; u < in.G2.NumNodes(); u++ {
					frac.Set(graph.NodeID(v), graph.NodeID(u), rng.Float64())
				}
			}
			// ξ equal to a score, so a node whose maximum sits exactly at
			// ξ must count as mappable.
			fracXi := frac.Score(0, graph.NodeID(rng.Intn(in.G2.NumNodes())))
			insts := []*Instance{in, NewInstance(in.G1, in.G2, in.Mat, 1), NewInstance(in.G1, in.G2, frac, fracXi)}
			for mi, inst := range insts {
				card, sim := QualityBound(inst.G1, rowMaxima(inst), inst.Xi)
				for _, inj := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d seed %d matrix %d injective=%v", size[0], size[1], seed, mi, inj)
					dec, cc, cs := decide, compMaxCard, compMaxSim
					if inj {
						dec, cc, cs = decide11, compMaxCard11, compMaxSim11
					}
					got := map[string]Mapping{
						"comp-card":  cc(inst),
						"comp-sim":   cs(inst),
						"exact-card": oracle(inst, inj, (*product.Product).ExactMaxCardClique),
						"exact-sim":  oracle(inst, inj, (*product.Product).ExactMaxSimClique),
					}
					if w, ok := dec(inst); ok {
						got["witness"] = w
					}
					for kind, m := range got {
						qc, qs := inst.QualCard(m), inst.QualSim(m)
						if qc > card || qs > sim {
							t.Fatalf("%s: %s has qualCard %v / qualSim %v above the bound %v / %v", name, kind, qc, qs, card, sim)
						}
						if qs == sim {
							tight++
						}
					}
				}
			}
		}
	}
	if tight == 0 {
		t.Fatal("no mapping reached its qualSim bound: the quickcheck never probed the rounding edge")
	}
	t.Logf("%d mappings reach the qualSim bound exactly", tight)
}

// TestQualityBoundEdges pins the cases search never skips on: a
// pattern without nodes or weight scores 1 whatever the mapping, and a
// negative weight leaves qualSim unbounded. A node below ξ adds to
// neither numerator.
func TestQualityBoundEdges(t *testing.T) {
	empty := graph.New(0)
	empty.Finish()
	if card, sim := QualityBound(empty, nil, 0.5); card != 1 || sim != 1 {
		t.Fatalf("empty pattern: bound %v / %v, want 1 / 1", card, sim)
	}
	g := graph.FromEdgeList([]string{"a", "b"}, nil)
	g.SetWeight(0, 3)
	g.SetWeight(1, 1)
	if card, sim := QualityBound(g, []float64{0.5, 0.8}, 0.75); card != 0.5 || sim != 0.8/4 {
		t.Fatalf("bound %v / %v, want 0.5 / 0.2", card, sim)
	}
	g.SetWeight(0, -1)
	if _, sim := QualityBound(g, []float64{1, 1}, 0.75); !math.IsInf(sim, 1) {
		t.Fatalf("negative weight: sim bound %v, want +Inf", sim)
	}
	g.SetWeight(0, 0)
	g.SetWeight(1, 0)
	if _, sim := QualityBound(g, []float64{0, 0}, 0.75); sim != 1 {
		t.Fatalf("zero weight: sim bound %v, want 1", sim)
	}
}
