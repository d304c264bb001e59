package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/syngen"
)

// Ablations quantify the design choices called out in DESIGN.md §1 on a
// shared synthetic workload: operating directly on the matching list
// versus materialising the product graph, the Appendix B partitioning and
// compression optimisations, and the max-|good| candidate pick of Fig. 4.

// AblationRow is one variant's measurement.
type AblationRow struct {
	Study    string
	Variant  string
	Seconds  float64
	QualCard float64
}

// RunAblations executes every ablation at the given pattern size and
// returns the rows in presentation order.
func RunAblations(m int, seed int64) []AblationRow {
	var rows []AblationRow
	measure := func(study, variant string, in *core.Instance, run func() core.Mapping) {
		start := time.Now()
		mapping := run()
		elapsed := time.Since(start).Seconds()
		rows = append(rows, AblationRow{
			Study:    study,
			Variant:  variant,
			Seconds:  elapsed,
			QualCard: in.QualCard(mapping),
		})
	}

	direct := func(in *core.Instance) func() core.Mapping {
		return func() core.Mapping {
			m, _ := in.CompMaxCardCtx(context.Background()) // never cancelled, so no error
			return m
		}
	}

	// Study 1: direct matching list vs naive product graph (Thm 5.1:
	// ISRemoval on the materialised G1 × G2+). The naive algorithm is
	// cubic in both graph sizes, so it runs on a reduced instance.
	small := syngen.Generate(syngen.Config{M: m / 4, NoisePercent: 10, NumData: 1, Seed: seed})
	sIn := core.NewInstance(small.G1, small.G2s[0], small.Matrix(small.G2s[0]), 0.75)
	measure("direct-vs-naive", "direct", sIn, direct(sIn))
	measure("direct-vs-naive", "naive-product", sIn, func() core.Mapping {
		p := product.Build(sIn.G1, sIn.G2, sIn.Mat, sIn.Xi, false, sIn.Reach())
		return core.Mapping(p.MappingFromClique(p.MaxCardClique()))
	})

	// Study 2: partitioning G1 (Appendix B) on a fragmented pattern.
	frag := fragmentedInstance(m, seed)
	measure("partition-g1", "direct", frag, direct(frag))
	measure("partition-g1", "partitioned", frag, frag.PartitionedMaxCard)

	// Study 3: compressing G2+ (Appendix B) on SCC-heavy data.
	cyc := cyclicInstance(m, seed)
	measure("compress-g2", "raw-closure", cyc, direct(cyc))
	measure("compress-g2", "compressed", cyc, func() core.Mapping { return CompressedMaxCard(cyc) })

	// Study 4: the Fig. 4 max-|good| pick vs an arbitrary pick.
	w := syngen.Generate(syngen.Config{M: m, NoisePercent: 10, NumData: 1, Seed: seed + 1})
	pIn := core.NewInstance(w.G1, w.G2s[0], w.Matrix(w.G2s[0]), 0.75)
	measure("pick-order", "max-good", pIn, direct(pIn))
	pIn.ArbitraryPick = true
	measure("pick-order", "arbitrary", pIn, direct(pIn))
	return rows
}

// fragmentedInstance builds a pattern of disconnected chains over a
// matching data graph — the case partitioning exploits.
func fragmentedInstance(m int, seed int64) *core.Instance {
	chains := m / 8
	if chains < 2 {
		chains = 2
	}
	var labels []string
	var edges [][2]int
	for c := 0; c < chains; c++ {
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
	return core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.75)
}

// cyclicInstance builds data full of nontrivial SCCs (rings joined in a
// chain) — the case closure compression exploits.
func cyclicInstance(m int, seed int64) *core.Instance {
	rings := m / 8
	if rings < 2 {
		rings = 2
	}
	var labels []string
	var edges [][2]int
	for r := 0; r < rings; r++ {
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
	g1, _ := g2.InducedSubgraph(graph.TopKByDegree(g2, len(labels)/4))
	return core.NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.75)
}

// FormatAblations renders the rows grouped by study.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	last := ""
	for _, r := range rows {
		if r.Study != last {
			fmt.Fprintf(&b, "%s\n", r.Study)
			last = r.Study
		}
		fmt.Fprintf(&b, "  %-16s %10.4fs   qualCard %.3f\n", r.Variant, r.Seconds, r.QualCard)
	}
	return b.String()
}
