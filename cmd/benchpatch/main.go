// Command benchpatch measures the incremental mutation path against
// the rebuild-everything story it replaces, on the serving-scale
// bow-tie graph of internal/syngen (one big SCC core, singleton
// tendrils — the candidate-sparse closure regime).
//
// Scenario A (catalog): the same deterministic patch storm — tendril
// edge inserts, deletes of earlier inserts, node appends — is applied
// to two catalogs, one maintaining cached closures by delta update
// (the default) and one with delta maintenance disabled
// (catalog.WithDeltaBudget(-1)), so every patch drops and eagerly
// rebuilds the closure, exactly the pre-incremental behaviour. After
// both storms the catalogs must agree: node/edge counts and a large
// random sample of Reachable pairs (biased toward patched endpoints)
// are compared, and any divergence is fatal — a fast wrong closure is
// worthless.
//
// Scenario B (engine): concurrent writers storm one graph through
// engine.ApplyPatch with patch coalescing on versus off, both on a
// durable store, measuring the end-to-end acknowledged patches/sec —
// the group-commit win (one WAL append + one closure update per
// batch).
//
// benchpatch emits BENCH_patch.json and fails when incremental
// maintenance does not beat rebuild by at least 5× (full run; the
// CI-sized -short run only requires it to win).
//
//	benchpatch -out BENCH_patch.json          # full run (100k-node graph)
//	benchpatch -short -out BENCH_patch.json   # CI-sized (20k-node graph)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/closure"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/syngen"
)

// report is the BENCH_patch.json schema.
type report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Short      bool   `json:"short"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Patches    int    `json:"patches"`
	// Scenario A: one writer, catalog-level, warm full closure.
	IncrementalSec    float64 `json:"incremental_sec"`
	RebuildSec        float64 `json:"rebuild_sec"`
	IncrementalPerSec float64 `json:"incremental_patches_per_sec"`
	RebuildPerSec     float64 `json:"rebuild_patches_per_sec"`
	// Speedup is RebuildSec / IncrementalSec — the headline number.
	Speedup float64 `json:"speedup"`
	// DeltaPatches counts storm patches the incremental catalog served
	// by delta maintenance (the rest fell back to rebuild).
	DeltaPatches int `json:"delta_patches"`
	// ReachSamples is the size of the post-storm equivalence sample; a
	// divergence aborts the run before the report is written.
	ReachSamples int `json:"reach_samples"`
	// Scenario B: concurrent writers, engine-level, durable store.
	Writers           int     `json:"writers"`
	EnginePatches     int     `json:"engine_patches"`
	CoalescedPerSec   float64 `json:"coalesced_patches_per_sec"`
	UncoalescedPerSec float64 `json:"uncoalesced_patches_per_sec"`
	CoalesceSpeedup   float64 `json:"coalesce_speedup"`
	PatchBatches      uint64  `json:"patch_batches"`
	PatchesCoalesced  uint64  `json:"patches_coalesced"`
}

func main() {
	out := flag.String("out", "BENCH_patch.json", "output path")
	nodes := flag.Int("nodes", 100000, "bow-tie graph size (scenario A)")
	patches := flag.Int("patches", 150, "storm length (scenario A)")
	writers := flag.Int("writers", 8, "concurrent patch writers (scenario B)")
	perWriter := flag.Int("per-writer", 40, "patches per writer (scenario B)")
	short := flag.Bool("short", false, "CI-sized run: smaller graph, shorter storm")
	flag.Parse()
	if *short {
		*nodes = 20000
		*patches = 40
		*perWriter = 20
	}

	g := syngen.GenerateLarge(syngen.LargeConfig{Nodes: *nodes, AvgDeg: 5, CoreFraction: 0.9, Seed: 42})
	ins, outs, cores := classify(g)
	log.Printf("bow-tie: %d nodes, %d edges (%d IN, %d OUT, %d core)",
		g.NumNodes(), g.NumEdges(), len(ins), len(outs), len(cores))
	storm := buildStorm(g, ins, outs, cores, *patches)

	rep := report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      *short,
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Patches:    len(storm),
		Writers:    *writers,
	}

	// Scenario A. Registration and the first closure build are untimed
	// warm-up: the storm measures steady-state mutation cost only. The
	// tier is pinned sparse — the regime the full-size graph selects
	// anyway — so the CI-sized -short graph (which auto would classify
	// dense) measures the same maintenance path as the full run;
	// dense-tier row maintenance is quickchecked in the catalog tests.
	inc := catalog.New(8, catalog.WithTierPolicy(closure.PolicySparse))
	reb := catalog.New(8, catalog.WithTierPolicy(closure.PolicySparse), catalog.WithDeltaBudget(-1))
	for _, c := range []*catalog.Catalog{inc, reb} {
		if err := c.Register("web", g.Clone()); err != nil {
			log.Fatal(err)
		}
		if _, _, _, err := c.GetWithIndex("web", 0); err != nil {
			log.Fatal(err)
		}
	}
	rep.IncrementalSec = applyStorm(inc, storm, "incremental")
	rep.RebuildSec = applyStorm(reb, storm, "rebuild")
	rep.IncrementalPerSec = float64(len(storm)) / rep.IncrementalSec
	rep.RebuildPerSec = float64(len(storm)) / rep.RebuildSec
	rep.Speedup = rep.RebuildSec / rep.IncrementalSec
	st := inc.Stats()
	rep.DeltaPatches = int(st.PatchesIncremental)
	if rs := reb.Stats(); rs.PatchesIncremental != 0 {
		log.Fatalf("rebuild catalog took the delta path %d times — WithDeltaBudget(-1) broken", rs.PatchesIncremental)
	}

	// Equivalence: the two catalogs must be indistinguishable after the
	// storm. Divergence is a correctness bug, not a benchmark result.
	rep.ReachSamples = verifyEquivalence(inc, reb, storm)
	log.Printf("equivalence: %d sampled reachability pairs agree (%d/%d patches incremental)",
		rep.ReachSamples, rep.DeltaPatches, len(storm))

	// Scenario B.
	rep.EnginePatches = *writers * *perWriter
	rep.UncoalescedPerSec = engineStorm(*writers, *perWriter, false, &rep)
	rep.CoalescedPerSec = engineStorm(*writers, *perWriter, true, &rep)
	rep.CoalesceSpeedup = rep.CoalescedPerSec / rep.UncoalescedPerSec

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("catalog: incremental %.1f patches/s vs rebuild %.1f patches/s (%.1f×); engine: coalesced %.0f/s vs direct %.0f/s (%.1f×) → %s",
		rep.IncrementalPerSec, rep.RebuildPerSec, rep.Speedup,
		rep.CoalescedPerSec, rep.UncoalescedPerSec, rep.CoalesceSpeedup, *out)

	floor := 5.0
	if *short {
		floor = 1.0 // CI boxes are noisy; the full run enforces the 5× bar
	}
	if rep.Speedup < floor {
		log.Fatalf("incremental maintenance speedup %.2f× is below the %.0f× floor", rep.Speedup, floor)
	}
}

// classify splits the bow-tie's nodes by role. IN-tendril nodes never
// receive edges and OUT-tendril nodes never emit them (singleton SCCs
// by construction); everything with traffic both ways is core. Edges
// from IN or into OUT can therefore never merge SCCs — the storm is
// built from them so the delta path stays applicable, mirroring the
// dominant production mutation (a new page linking into the site).
func classify(g *graph.Graph) (ins, outs, cores []graph.NodeID) {
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		switch {
		case g.InDegree(id) == 0:
			ins = append(ins, id)
		case g.OutDegree(id) == 0:
			outs = append(outs, id)
		default:
			cores = append(cores, id)
		}
	}
	return ins, outs, cores
}

// buildStorm composes a deterministic mutation storm: tendril-to-core
// and core-to-tendril inserts, deletes of earlier feeder inserts, and
// the occasional node append (a fresh sink page linked from the core).
// Both catalogs replay the identical sequence.
//
// Deletes unlink IN→core feeder edges only: their recompute cone is a
// single singleton component. Deleting an edge out of (or inside) the
// big core forces recomputing the core's row and its whole ancestor
// tendril — genuinely comparable to a rebuild, so the budget correctly
// falls back there; that path is covered by the catalog equivalence
// tests and would only measure rebuild-vs-rebuild here.
func buildStorm(g *graph.Graph, ins, outs, cores []graph.NodeID, n int) []*graph.Patch {
	rng := rand.New(rand.NewSource(7))
	nodeCount := g.NumNodes()
	var added [][2]graph.NodeID // feeder inserts not yet deleted, oldest first
	storm := make([]*graph.Patch, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%3 == 2 && len(added) > 0:
			// Unlink the oldest surviving feeder insert.
			e := added[0]
			added = added[1:]
			storm = append(storm, &graph.Patch{DelEdges: [][2]graph.NodeID{e}})
		case i%10 == 9:
			// Append a page and link it from the core: the new node is a
			// sink, a fresh singleton in the condensation.
			nid := graph.NodeID(nodeCount)
			nodeCount++
			storm = append(storm, &graph.Patch{
				AddNodes: []graph.Node{{Label: "new", Weight: 1, Content: fmt.Sprintf("page added by storm patch %d", i)}},
				AddEdges: [][2]graph.NodeID{{cores[rng.Intn(len(cores))], nid}},
			})
		case i%2 == 0:
			e := [2]graph.NodeID{ins[rng.Intn(len(ins))], cores[rng.Intn(len(cores))]}
			added = append(added, e)
			storm = append(storm, &graph.Patch{AddEdges: [][2]graph.NodeID{e}})
		default:
			// Core→sink insert: updates every ancestor row of the core,
			// the widest cone the delta path serves. Never deleted (see
			// above).
			e := [2]graph.NodeID{cores[rng.Intn(len(cores))], outs[rng.Intn(len(outs))]}
			storm = append(storm, &graph.Patch{AddEdges: [][2]graph.NodeID{e}})
		}
	}
	return storm
}

// applyStorm replays the storm against one catalog and returns the
// wall time. Every patch must succeed — the sequence deletes only
// edges it inserted.
func applyStorm(c *catalog.Catalog, storm []*graph.Patch, label string) float64 {
	start := time.Now()
	for i, p := range storm {
		if _, err := c.Apply("web", p); err != nil {
			log.Fatalf("%s: storm patch %d: %v", label, i, err)
		}
	}
	sec := time.Since(start).Seconds()
	log.Printf("%-12s %d patches in %.2fs (%.1f/s)", label, len(storm), sec, float64(len(storm))/sec)
	return sec
}

// verifyEquivalence cross-checks the two post-storm catalogs: graph
// sizes, then sampled Reachable pairs — half uniform, half anchored on
// nodes the storm touched, where a stale closure would actually show.
func verifyEquivalence(inc, reb *catalog.Catalog, storm []*graph.Patch) int {
	gi, ri, err := inc.GetWithReach("web", 0)
	if err != nil {
		log.Fatal(err)
	}
	gr, rr, err := reb.GetWithReach("web", 0)
	if err != nil {
		log.Fatal(err)
	}
	if gi.NumNodes() != gr.NumNodes() || gi.NumEdges() != gr.NumEdges() {
		log.Fatalf("graphs diverged: incremental %d/%d vs rebuild %d/%d",
			gi.NumNodes(), gi.NumEdges(), gr.NumNodes(), gr.NumEdges())
	}
	var touched []graph.NodeID
	for _, p := range storm {
		for _, e := range p.AddEdges {
			touched = append(touched, e[0], e[1])
		}
		for _, e := range p.DelEdges {
			touched = append(touched, e[0], e[1])
		}
	}
	rng := rand.New(rand.NewSource(99))
	n := gi.NumNodes()
	const samples = 4000
	for i := 0; i < samples; i++ {
		var u, v graph.NodeID
		if i%2 == 0 && len(touched) > 0 {
			u = touched[rng.Intn(len(touched))]
		} else {
			u = graph.NodeID(rng.Intn(n))
		}
		v = graph.NodeID(rng.Intn(n))
		if a, b := ri.Reachable(u, v), rr.Reachable(u, v); a != b {
			log.Fatalf("closures diverged: Reachable(%d, %d) = %v incremental, %v rebuilt", u, v, a, b)
		}
	}
	return samples
}

// engineStorm measures acknowledged end-to-end patch throughput on a
// durable engine under concurrent writers, with or without patch
// coalescing. Every writer inserts distinct IN→core edges, so any
// interleaving (and any batch composition) is valid.
func engineStorm(writers, perWriter int, coalesce bool, rep *report) float64 {
	dir, err := os.MkdirTemp("", "benchpatch-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	g := syngen.GenerateLarge(syngen.LargeConfig{Nodes: 5000, AvgDeg: 5, CoreFraction: 0.9, Seed: 43})
	ins, _, cores := classify(g)
	opts := engine.Options{Workers: 2, StorePath: dir}
	if coalesce {
		opts.PatchCoalesceCount = 64
	}
	eng, err := engine.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("web", g); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Catalog().Reach("web", 0); err != nil {
		log.Fatal(err)
	}
	// Untimed warm-up: fault in the WAL path and the patched-closure
	// machinery so the timed section measures steady state, not first
	// touch; then clear the allocation debt scenario A left behind.
	for i := 0; i < 4; i++ {
		if _, err := eng.ApplyPatch("web", &graph.Patch{
			AddEdges: [][2]graph.NodeID{{ins[len(ins)-1-i], cores[len(cores)-1-i]}},
		}); err != nil {
			log.Fatal(err)
		}
	}
	runtime.GC()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				idx := w*perWriter + i
				e := [2]graph.NodeID{ins[idx%len(ins)], cores[(idx/len(ins))%len(cores)]}
				if _, err := eng.ApplyPatch("web", &graph.Patch{AddEdges: [][2]graph.NodeID{{e[0], e[1]}}}); err != nil {
					errs[w] = fmt.Errorf("writer %d patch %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	sec := time.Since(start).Seconds()
	total := writers * perWriter
	mode := "direct"
	if coalesce {
		mode = "coalesced"
		s := eng.Stats()
		rep.PatchBatches = s.PatchBatches
		rep.PatchesCoalesced = s.PatchesCoalesced
	}
	log.Printf("engine %-10s %d writers × %d patches in %.2fs (%.0f/s)",
		mode, writers, perWriter, sec, float64(total)/sec)
	return float64(total) / sec
}
