package graphmatch

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus the ablations called out in DESIGN.md §1.
// Benchmarks run scaled-down workloads so `go test -bench=.` finishes in
// minutes; `cmd/experiments` regenerates the full-scale rows and series.
//
// Figure 5 benchmarks report the accuracy series via ReportMetric
// (accuracy_pct) while timing one matching run per iteration; Figure 6
// benchmarks time each algorithm separately at the swept settings.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"graphmatch/internal/core"
	"graphmatch/internal/experiments"
	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/simulation"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

// --- Table 2: Web graphs and skeletons ---

func BenchmarkTable2_SkeletonExtraction(b *testing.B) {
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 1000, Versions: 1, Seed: 1})
	g := arch.Versions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk1 := webgen.Skeleton(g, 0.2)
		sk2 := webgen.TopKSkeleton(g, 20)
		if sk1.NumNodes() == 0 || sk2.NumNodes() == 0 {
			b.Fatal("empty skeleton")
		}
	}
}

// --- Table 3: accuracy and scalability on Web archives ---

func table3Instances(b *testing.B, skSet int) map[string]*core.Instance {
	b.Helper()
	sites := experiments.GenerateSites(experiments.WebConfig{
		Pages:    [3]int{800, 500, 500},
		Versions: 3,
		Seed:     7,
	})
	out := make(map[string]*core.Instance)
	for _, s := range sites {
		sks := s.Sk1
		if skSet == 1 {
			sks = s.Sk2
		}
		pattern, data := sks[0], sks[len(sks)-1]
		mat := simmatrix.FromContent(pattern, data, 4)
		out[s.Name] = core.NewInstance(pattern, data, mat, 0.75)
	}
	return out
}

// compAlgos lists the paper's four approximation algorithms under their
// Table 3 names.
var compAlgos = []struct {
	name string
	run  func(*core.Instance, context.Context) (core.Mapping, error)
}{
	{"compMaxCard", (*core.Instance).CompMaxCardCtx},
	{"compMaxCard1-1", (*core.Instance).CompMaxCard11Ctx},
	{"compMaxSim", (*core.Instance).CompMaxSimCtx},
	{"compMaxSim1-1", (*core.Instance).CompMaxSim11Ctx},
}

func BenchmarkTable3_WebMatching(b *testing.B) {
	for skSet, skName := range []string{"skeletons1", "skeletons2"} {
		instances := table3Instances(b, skSet)
		for _, a := range compAlgos {
			for site, in := range instances {
				b.Run(fmt.Sprintf("%s/%s/%s", skName, a.name, site), func(b *testing.B) {
					var q float64
					for i := 0; i < b.N; i++ {
						m, _ := a.run(in, context.Background())
						q = in.QualCard(m)
					}
					b.ReportMetric(q*100, "qualCard_pct")
				})
			}
		}
	}
}

func BenchmarkTable3_SF(b *testing.B) {
	instances := table3Instances(b, 0)
	for site, in := range instances {
		b.Run(site, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.RunOne(experiments.SF, in, 0, 0.75)
			}
		})
	}
}

func BenchmarkTable3_cdkMCS_Top20(b *testing.B) {
	instances := table3Instances(b, 1)
	for site, in := range instances {
		b.Run(site, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.RunOne(experiments.CDKMCS, in, 500*time.Millisecond, 0.75)
			}
		})
	}
}

// --- Figures 5/6: synthetic workloads ---

// synInstances prepares the (G1, G2) instances of one synthetic point.
func synInstances(m int, noise, xi float64, numData int, seed int64) []*core.Instance {
	w := syngen.Generate(syngen.Config{M: m, NoisePercent: noise, NumData: numData, Seed: seed})
	var out []*core.Instance
	for _, g2 := range w.G2s {
		out = append(out, core.NewInstance(w.G1, g2, w.Matrix(g2), xi))
	}
	return out
}

// benchAccuracyPoint times compMaxCard per matching run and reports the
// point's accuracy across the prepared data graphs.
func benchAccuracyPoint(b *testing.B, ins []*core.Instance) {
	ctx := context.Background()
	matched := 0
	for _, in := range ins {
		if m, _ := in.CompMaxCardCtx(ctx); in.QualCard(m) >= 0.75 {
			matched++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins[i%len(ins)].CompMaxCardCtx(ctx)
	}
	b.ReportMetric(100*float64(matched)/float64(len(ins)), "accuracy_pct")
}

func BenchmarkFig5a_AccuracyVsSize(b *testing.B) {
	for _, m := range []int{50, 100, 200} {
		ins := synInstances(m, 10, 0.75, 5, int64(m))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchAccuracyPoint(b, ins) })
	}
}

func BenchmarkFig5b_AccuracyVsNoise(b *testing.B) {
	for _, noise := range []float64{2, 10, 20} {
		ins := synInstances(100, noise, 0.75, 5, int64(noise))
		b.Run(fmt.Sprintf("noise=%g", noise), func(b *testing.B) { benchAccuracyPoint(b, ins) })
	}
}

func BenchmarkFig5c_AccuracyVsThreshold(b *testing.B) {
	for _, xi := range []float64{0.5, 0.75, 1.0} {
		ins := synInstances(100, 10, xi, 5, 3)
		b.Run(fmt.Sprintf("xi=%g", xi), func(b *testing.B) { benchAccuracyPoint(b, ins) })
	}
}

// benchAlgorithms times every Fig. 6 competitor on one instance.
func benchAlgorithms(b *testing.B, in *core.Instance) {
	for _, a := range compAlgos {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.run(in, context.Background())
			}
		})
	}
	b.Run("graphSimulation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simulation.Compute(in.G1, in.G2, in.Mat, in.Xi)
		}
	})
}

func BenchmarkFig6a_TimeVsSize(b *testing.B) {
	for _, m := range []int{50, 100, 200} {
		ins := synInstances(m, 10, 0.75, 1, int64(m))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchAlgorithms(b, ins[0]) })
	}
}

func BenchmarkFig6b_TimeVsNoise(b *testing.B) {
	for _, noise := range []float64{2, 10, 20} {
		ins := synInstances(100, noise, 0.75, 1, int64(noise))
		b.Run(fmt.Sprintf("noise=%g", noise), func(b *testing.B) { benchAlgorithms(b, ins[0]) })
	}
}

func BenchmarkFig6c_TimeVsThreshold(b *testing.B) {
	for _, xi := range []float64{0.5, 0.75, 1.0} {
		ins := synInstances(100, 10, xi, 1, 5)
		b.Run(fmt.Sprintf("xi=%g", xi), func(b *testing.B) { benchAlgorithms(b, ins[0]) })
	}
}

// --- Ablations (DESIGN.md §1) ---

// BenchmarkAblation_DirectVsNaive quantifies why compMaxCard operates on
// the matching list instead of materialising the product graph: the naive
// algorithm is O(|V1|³|V2|³).
func BenchmarkAblation_DirectVsNaive(b *testing.B) {
	ins := synInstances(30, 10, 0.75, 1, 11)
	in := ins[0]
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.CompMaxCardCtx(context.Background())
		}
	})
	b.Run("naive-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := product.Build(in.G1, in.G2, in.Mat, in.Xi, false, in.Reach())
			p.MappingFromClique(p.MaxCardClique())
		}
	})
}

// BenchmarkAblation_PartitionG1 measures the Appendix B partitioning
// optimisation on a pattern that splits into components.
func BenchmarkAblation_PartitionG1(b *testing.B) {
	// Pattern of several disconnected chains; data with matching labels.
	var labels []string
	var edges [][2]int
	for c := 0; c < 10; c++ {
		base := len(labels)
		for i := 0; i < 8; i++ {
			labels = append(labels, fmt.Sprintf("c%d_%d", c, i))
			if i > 0 {
				edges = append(edges, [2]int{base + i - 1, base + i})
			}
		}
	}
	g1 := graph.FromEdgeList(labels, edges)
	g2 := g1.Clone()
	in := core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.75)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.CompMaxCardCtx(context.Background())
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.PartitionedMaxCard()
		}
	})
}

// BenchmarkAblation_CompressClosure compares matching against the raw
// closure with matching against the SCC-compressed G2* on cyclic data.
func BenchmarkAblation_CompressClosure(b *testing.B) {
	// Data graph with chunky SCCs: rings of 8 connected in a chain.
	var labels []string
	var edges [][2]int
	for r := 0; r < 12; r++ {
		base := len(labels)
		for i := 0; i < 8; i++ {
			labels = append(labels, fmt.Sprintf("r%d_%d", r, i))
			edges = append(edges, [2]int{base + i, base + (i+1)%8})
		}
		if r > 0 {
			edges = append(edges, [2]int{base - 8, base})
		}
	}
	g2 := graph.FromEdgeList(labels, edges)
	g1, _ := g2.InducedSubgraph(graph.TopKByDegree(g2, 24))
	in := core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.75)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.CompMaxCardCtx(context.Background())
		}
	})
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.CompressedMaxCard()
		}
	})
}

// BenchmarkAblation_PickOrder compares Fig. 4's max-|good| node selection
// with an arbitrary (first-in-list) pick.
func BenchmarkAblation_PickOrder(b *testing.B) {
	ins := synInstances(80, 10, 0.75, 1, 13)
	in := ins[0]
	run := func(b *testing.B) {
		var m core.Mapping
		for i := 0; i < b.N; i++ {
			m, _ = in.CompMaxCardCtx(context.Background())
		}
		b.ReportMetric(float64(len(m)), "matched_nodes")
	}
	b.Run("max-good", run)
	in.ArbitraryPick = true
	b.Run("first", run)
}
