// Command benchsearch measures the catalog-wide search subsystem: it
// registers a fleet of webgen site mirrors (several sites × several
// archived versions each, ≥100 graphs), then ranks skeleton patterns
// against the whole catalog twice — once through the shingle/structural
// prefilter and once as a brute-force scan that matches every graph —
// and emits BENCH_search.json comparing the two: matcher invocations
// saved (the prune rate), p50/p99 search latency per path, and whether
// the prefiltered top-k equals the brute-force top-k on every query.
//
//	benchsearch -out BENCH_search.json          # full run
//	benchsearch -short -out BENCH_search.json   # CI-sized (smaller sites, same catalog size)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

// pathReport summarises one search path (prefiltered or brute).
type pathReport struct {
	MatcherInvocations int   `json:"matcher_invocations"`
	P50US              int64 `json:"p50_us"`
	P99US              int64 `json:"p99_us"`
	MaxUS              int64 `json:"max_us"`
}

// report is the BENCH_search.json schema.
type report struct {
	Timestamp      string     `json:"timestamp"`
	GoVersion      string     `json:"go_version"`
	GOMAXPROCS     int        `json:"gomaxprocs"`
	Graphs         int        `json:"graphs"`
	Sites          int        `json:"sites"`
	Versions       int        `json:"versions"`
	Pages          int        `json:"pages_per_site"`
	PatternNodes   int        `json:"pattern_nodes"`
	K              int        `json:"k"`
	Reps           int        `json:"reps"`
	Algo           string     `json:"algo"`
	Xi             float64    `json:"xi"`
	MinResemblance float64    `json:"min_resemblance"`
	RegisterSec    float64    `json:"register_sec"`
	IndexBuildSec  float64    `json:"index_build_sec"`
	Prefilter      pathReport `json:"prefilter"`
	Brute          pathReport `json:"brute"`
	// PruneRate is the fraction of brute-force matcher invocations the
	// prefilter skipped: 1 − prefilter/brute.
	PruneRate float64 `json:"prune_rate"`
	// EqualTopK reports that every query's prefiltered ranking was
	// identical (names and order) to the brute-force ranking.
	EqualTopK  bool    `json:"equal_topk"`
	SpeedupP50 float64 `json:"speedup_p50"`
}

func main() {
	out := flag.String("out", "BENCH_search.json", "output path")
	sites := flag.Int("sites", 10, "distinct web sites")
	versions := flag.Int("versions", 11, "archived versions per site (sites × versions = catalog size)")
	pages := flag.Int("pages", 300, "pages per site version")
	patNodes := flag.Int("pattern", 12, "pattern skeleton size (top-k hubs of each site's oldest version)")
	k := flag.Int("k", 5, "ranked hits per search")
	reps := flag.Int("reps", 3, "timed repetitions per query")
	minRes := flag.Float64("min-resemblance", 0.1, "prefilter prune threshold")
	xi := flag.Float64("xi", 0.75, "node-similarity threshold ξ")
	short := flag.Bool("short", false, "CI-sized run: smaller sites and one repetition, same catalog size")
	flag.Parse()
	if *short {
		*pages = 120
		*reps = 1
	}

	eng := engine.New(engine.Options{MaxClosures: *sites**versions + 8})
	defer eng.Close()

	categories := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	patterns := make([]*graph.Graph, *sites)
	regStart := time.Now()
	for s := 0; s < *sites; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: categories[s%len(categories)],
			Pages:    *pages,
			Versions: *versions,
			Seed:     int64(1000 + s),
		})
		for v, g := range arch.Versions {
			if err := eng.Register(context.Background(), fmt.Sprintf("site%02d/v%02d", s, v), g); err != nil {
				log.Fatal(err)
			}
		}
		patterns[s] = webgen.TopKSkeleton(arch.Versions[0], *patNodes)
	}
	registerSec := time.Since(regStart).Seconds()

	ctx := context.Background()
	base := engine.SearchRequest{
		Algo: engine.MaxSim,
		Xi:   *xi,
		Sim:  engine.SimContent,
		K:    *k,
	}

	// One untimed warm-up builds the lazy stage-1 summaries for the
	// whole catalog, so the timed runs measure steady-state serving.
	// Its Stage1 time is the index build cost (summaries + postings);
	// the warm-up's matching fan-out is deliberately excluded.
	warm := base
	warm.Pattern = patterns[0]
	warm.MinResemblance = *minRes
	warmRes := eng.Search(ctx, warm)
	if warmRes.Err != nil {
		log.Fatal(warmRes.Err)
	}
	indexBuildSec := warmRes.Stats.Stage1.Seconds()

	var (
		preLats, bruteLats []time.Duration
		preInv, bruteInv   int
		equal              = true
	)
	for rep := 0; rep < *reps; rep++ {
		for s := 0; s < *sites; s++ {
			pre := base
			pre.Pattern = patterns[s]
			pre.MinResemblance = *minRes
			t0 := time.Now()
			preRes := eng.Search(ctx, pre)
			preLats = append(preLats, time.Since(t0))
			if preRes.Err != nil {
				log.Fatal(preRes.Err)
			}
			preInv += preRes.Stats.Matched

			brute := base
			brute.Pattern = patterns[s]
			brute.NoPrefilter = true
			t0 = time.Now()
			bruteRes := eng.Search(ctx, brute)
			bruteLats = append(bruteLats, time.Since(t0))
			if bruteRes.Err != nil {
				log.Fatal(bruteRes.Err)
			}
			bruteInv += bruteRes.Stats.Matched

			if !sameRanking(preRes, bruteRes) {
				equal = false
				log.Printf("site%02d: prefiltered top-k diverges from brute force:\n  pre:   %v\n  brute: %v",
					s, names(preRes), names(bruteRes))
			}
		}
	}

	rep := report{
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Graphs:         *sites * *versions,
		Sites:          *sites,
		Versions:       *versions,
		Pages:          *pages,
		PatternNodes:   *patNodes,
		K:              *k,
		Reps:           *reps,
		Algo:           string(base.Algo),
		Xi:             *xi,
		MinResemblance: *minRes,
		RegisterSec:    registerSec,
		IndexBuildSec:  indexBuildSec,
		Prefilter:      summarise(preLats, preInv),
		Brute:          summarise(bruteLats, bruteInv),
		EqualTopK:      equal,
	}
	if bruteInv > 0 {
		rep.PruneRate = 1 - float64(preInv)/float64(bruteInv)
	}
	if rep.Prefilter.P50US > 0 {
		rep.SpeedupP50 = float64(rep.Brute.P50US) / float64(rep.Prefilter.P50US)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	encoder := json.NewEncoder(f)
	encoder.SetIndent("", "  ")
	if err := encoder.Encode(rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d graphs, %d queries ×%d: prune rate %.0f%%, equal top-k %v, p50 %dµs vs brute %dµs (%.1f×) → %s",
		rep.Graphs, *sites, *reps, rep.PruneRate*100, equal,
		rep.Prefilter.P50US, rep.Brute.P50US, rep.SpeedupP50, *out)
	if rep.PruneRate < 0.5 {
		log.Fatalf("prune rate %.2f below the 0.5 acceptance bar", rep.PruneRate)
	}
	if !equal {
		log.Fatal("prefiltered top-k diverged from the brute-force scan")
	}
}

func names(r engine.SearchResult) []string {
	out := make([]string, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.Graph
	}
	return out
}

func sameRanking(a, b engine.SearchResult) bool {
	if len(a.Hits) != len(b.Hits) {
		return false
	}
	for i := range a.Hits {
		if a.Hits[i].Graph != b.Hits[i].Graph {
			return false
		}
	}
	return true
}

func summarise(lats []time.Duration, invocations int) pathReport {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) int64 {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[int(p*float64(len(sorted)-1))].Microseconds()
	}
	return pathReport{
		MatcherInvocations: invocations,
		P50US:              pct(0.50),
		P99US:              pct(0.99),
		MaxUS:              pct(1.0),
	}
}
