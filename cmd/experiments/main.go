// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 6 of Fan et al., PVLDB 2010):
//
//	experiments -exp table2          # Table 2: data sets and skeletons
//	experiments -exp table3          # Table 3: accuracy & scalability, Web archives
//	experiments -exp fig5a           # Fig. 5(a): accuracy vs pattern size m
//	experiments -exp fig5b           # Fig. 5(b): accuracy vs noise rate
//	experiments -exp fig5c           # Fig. 5(c): accuracy vs threshold ξ
//	experiments -exp fig6a|fig6b|fig6c  # Fig. 6: running times of the same sweeps
//	experiments -exp all             # everything, in paper order
//
// -scale trades fidelity for speed: 1.0 approximates the paper's sizes
// (m up to 800, sites in the thousands of pages); the default 0.25 runs
// in a few minutes on a laptop. Results print as aligned text tables; see
// EXPERIMENTS.md for recorded paper-vs-measured comparisons.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphmatch/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table2, table3, fig5a, fig5b, fig5c, fig6a, fig6b, fig6c, ablation, baselines, all")
	scale := flag.Float64("scale", 0.25, "workload scale relative to the paper (1.0 = paper-sized)")
	seed := flag.Int64("seed", 2010, "random seed for all generators")
	numData := flag.Int("graphs", 0, "data graphs per synthetic point (default: 15 scaled)")
	csvDir := flag.String("csv", "", "also write results as CSV files into this directory")
	flag.Parse()

	r := &runner{scale: *scale, seed: *seed, numData: *numData, csvDir: *csvDir}
	if r.csvDir != "" {
		if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch *exp {
	case "table2":
		r.table2()
	case "table3":
		r.table3()
	case "fig5a":
		r.fig5a()
	case "fig5b":
		r.fig5b()
	case "fig5c":
		r.fig5c()
	case "fig6a":
		r.fig6a()
	case "fig6b":
		r.fig6b()
	case "fig6c":
		r.fig6c()
	case "ablation":
		r.ablation()
	case "baselines":
		r.baselines()
	case "all":
		r.table2()
		r.table3()
		r.fig5a()
		r.fig5b()
		r.fig5c()
		r.fig6a()
		r.fig6b()
		r.fig6c()
		r.ablation()
		r.baselines()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

type runner struct {
	scale   float64
	seed    int64
	numData int
	csvDir  string

	sites   []*experiments.SiteData
	siteCfg experiments.WebConfig

	// Sweep memos: each figure pair (5x, 6x) reports the same runs, once
	// as accuracy and once as time.
	sizePts, noisePts, xiPts []experiments.SynPoint
}

func (r *runner) scaled(n int) int {
	v := int(float64(n) * r.scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (r *runner) data() int {
	if r.numData > 0 {
		return r.numData
	}
	n := r.scaled(15)
	if n < 3 {
		n = 3
	}
	return n
}

// webSites lazily generates the three site archives (shared by Table 2
// and Table 3).
func (r *runner) webSites() ([]*experiments.SiteData, experiments.WebConfig) {
	if r.sites == nil {
		r.siteCfg = experiments.WebConfig{
			// Paper sizes: 20000 / 5400 / 7000 pages.
			Pages:     [3]int{r.scaled(20000), r.scaled(5400), r.scaled(7000)},
			Versions:  11,
			Seed:      r.seed,
			MCSBudget: 5 * time.Second,
		}
		start := time.Now()
		fmt.Printf("generating web archives (scale %.2f)...\n", r.scale)
		r.sites = experiments.GenerateSites(r.siteCfg)
		fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	return r.sites, r.siteCfg
}

func (r *runner) table2() {
	sites, _ := r.webSites()
	fmt.Println("=== Table 2: Web graphs and skeletons ===")
	fmt.Print(experiments.FormatTable2(experiments.Table2(sites)))
	fmt.Println()
}

func (r *runner) table3() {
	sites, cfg := r.webSites()
	fmt.Println("=== Table 3: accuracy and scalability on real-life-style data ===")
	start := time.Now()
	res := experiments.Table3(sites, cfg)
	fmt.Print(experiments.FormatTable3(res))
	fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	r.writeCSV("table3.csv", func(f *os.File) error {
		return experiments.WriteTable3CSV(f, res)
	})
}

// writeCSV emits one CSV artifact when -csv is set.
func (r *runner) writeCSV(name string, write func(*os.File) error) {
	if r.csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func (r *runner) writeSeriesCSV(name, xLabel string, pts []experiments.SynPoint) {
	algs := append(append([]experiments.Algorithm{}, experiments.OurAlgorithms...), experiments.GraphSim)
	r.writeCSV(name, func(f *os.File) error {
		return experiments.WriteSeriesCSV(f, xLabel, pts, algs)
	})
}

// Synthetic sweeps. Paper settings: m ∈ 100..800 (5a/6a);
// m = 500, noise ∈ 2..20 (5b/6b); m = 500, ξ ∈ 0.5..1.0 (5c/6c).

func (r *runner) sizes() []int {
	var out []int
	for _, m := range []int{100, 200, 300, 400, 500, 600, 700, 800} {
		out = append(out, r.scaled(m))
	}
	return out
}

func (r *runner) fig5a() { r.sizeSweep(false) }
func (r *runner) fig6a() { r.sizeSweep(true) }

func (r *runner) sizeSweep(seconds bool) {
	if r.sizePts == nil {
		r.sizePts = experiments.SweepSize(r.sizes(), r.seed, r.data())
		r.writeSeriesCSV("fig5a_6a_size.csv", "m", r.sizePts)
	}
	pts := r.sizePts
	algs := append(append([]experiments.Algorithm{}, experiments.OurAlgorithms...), experiments.GraphSim)
	if seconds {
		fmt.Print(experiments.FormatSeries("=== Fig. 6(a): time (s) vs size m ===", "m", pts, algs, true))
	} else {
		fmt.Print(experiments.FormatSeries("=== Fig. 5(a): accuracy (%) vs size m ===", "m", pts, experiments.OurAlgorithms, false))
	}
	fmt.Println()
}

func (r *runner) fig5b() { r.noiseSweep(false) }
func (r *runner) fig6b() { r.noiseSweep(true) }

func (r *runner) noiseSweep(seconds bool) {
	if r.noisePts == nil {
		noises := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
		r.noisePts = experiments.SweepNoise(r.scaled(500), noises, r.seed, r.data())
		r.writeSeriesCSV("fig5b_6b_noise.csv", "noise_pct", r.noisePts)
	}
	pts := r.noisePts
	algs := append(append([]experiments.Algorithm{}, experiments.OurAlgorithms...), experiments.GraphSim)
	if seconds {
		fmt.Print(experiments.FormatSeries("=== Fig. 6(b): time (s) vs noise rate (%) ===", "noise%", pts, algs, true))
	} else {
		fmt.Print(experiments.FormatSeries("=== Fig. 5(b): accuracy (%) vs noise rate (%) ===", "noise%", pts, experiments.OurAlgorithms, false))
	}
	fmt.Println()
}

func (r *runner) fig5c() { r.xiSweep(false) }
func (r *runner) fig6c() { r.xiSweep(true) }

func (r *runner) ablation() {
	fmt.Println("=== Ablations (DESIGN.md §1) ===")
	rows := experiments.RunAblations(r.scaled(400), r.seed)
	fmt.Print(experiments.FormatAblations(rows))
	fmt.Println()
}

func (r *runner) baselines() {
	fmt.Println("=== Extended baseline study (beyond Table 3) ===")
	cfg := experiments.SynConfig{M: r.scaled(120), Noise: 10, Xi: 0.75, NumData: r.data(), Seed: r.seed}
	rows := experiments.RunBaselines(cfg)
	fmt.Print(experiments.FormatBaselines(rows, cfg))
	fmt.Println()
}

func (r *runner) xiSweep(seconds bool) {
	if r.xiPts == nil {
		xis := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
		r.xiPts = experiments.SweepXi(r.scaled(500), xis, r.seed, r.data())
		r.writeSeriesCSV("fig5c_6c_xi.csv", "xi", r.xiPts)
	}
	pts := r.xiPts
	algs := append(append([]experiments.Algorithm{}, experiments.OurAlgorithms...), experiments.GraphSim)
	if seconds {
		fmt.Print(experiments.FormatSeries("=== Fig. 6(c): time (s) vs similarity threshold ξ ===", "xi", pts, algs, true))
	} else {
		fmt.Print(experiments.FormatSeries("=== Fig. 5(c): accuracy (%) vs similarity threshold ξ ===", "xi", pts, experiments.OurAlgorithms, false))
	}
	fmt.Println()
}
