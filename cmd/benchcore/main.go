// Command benchcore measures the matcher hot path the way the serving
// stack exercises it and emits a machine-readable snapshot, the
// companion of cmd/benchengine's end-to-end numbers:
//
//	benchcore -out BENCH_core.json
//
// Three layers are timed with testing.Benchmark against one shared,
// catalog-shaped fixture (a random data graph whose closure is built
// once, as internal/catalog does for registered graphs):
//
//   - matcher setup with the shared index (the serving fast path) and
//     with a per-request dense row rebuild (what every request paid
//     before the index was shareable), whose ratio is the headline of
//     the zero-rebuild change;
//   - one full compMaxCard request under the served index (the
//     candidate-sparse closure.CompIndex) and under the dense
//     reference rows (closure.NewRows), with the bytes the dense rows
//     add — the evidence that the server needs only the one index;
//   - a concurrent engine workload, reported as requests/sec.
//
// A second, separately reported scenario (-large-nodes, default 100k)
// registers a power-law graph with a strongly connected core through a
// real engine, runs matches against it, and compares the catalog's
// resident bytes to the dense per-node-rows projection 2·n²/8 — the
// quadratic footprint that made graphs this size unservable before the
// SCC-condensed index. CI runs both and archives
// BENCH_core.json and BENCH_core_large.json next to BENCH_engine.json
// so hot-path and memory regressions are visible per commit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/syngen"
)

// report is the BENCH_core.json schema.
type report struct {
	Timestamp    string `json:"timestamp"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	DataNodes    int    `json:"data_nodes"`
	PatternNodes int    `json:"pattern_nodes"`

	// Per-request matcher setup against a catalog-cached graph and its
	// shared index.
	SetupNsOp     int64 `json:"setup_ns_op"`
	SetupAllocsOp int64 `json:"setup_allocs_op"`
	// The same setup re-deriving dense closure rows per request (the
	// pre-sharing behaviour kept as the comparison baseline).
	SetupRowBuildNsOp     int64   `json:"setup_rowbuild_ns_op"`
	SetupRowBuildAllocsOp int64   `json:"setup_rowbuild_allocs_op"`
	SetupSpeedup          float64 `json:"setup_speedup"`

	// One full compMaxCard request: instance + setup + search, under
	// the dense reference rows (closure.NewRows)...
	MatchNsOp     int64 `json:"match_ns_op"`
	MatchAllocsOp int64 `json:"match_allocs_op"`
	MatchBytesOp  int64 `json:"match_bytes_op"`
	// ...and under the served index (closure.CompIndex), with the
	// bytes the dense rows add on top of the closure; the served index
	// adds none.
	SparseMatchNsOp int64 `json:"sparse_match_ns_op"`
	DenseIndexBytes int64 `json:"dense_index_bytes"`

	// Concurrent engine workload.
	EngineRequests       int     `json:"engine_requests"`
	EngineRequestsPerSec float64 `json:"engine_requests_per_sec"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output path")
	dataNodes := flag.Int("nodes", 400, "data graph nodes")
	patNodes := flag.Int("pattern", 10, "pattern nodes")
	avgDeg := flag.Int("deg", 4, "average out-degree of the data graph")
	engineReqs := flag.Int("requests", 1500, "requests in the engine workload")
	clients := flag.Int("clients", 8, "concurrent clients in the engine workload")
	largeOut := flag.String("large-out", "BENCH_core_large.json", "output path for the large-graph scenario")
	largeNodes := flag.Int("large-nodes", 100000, "nodes in the large-graph scenario (0 disables it)")
	largeDeg := flag.Int("large-deg", 5, "average out-degree of the large graph")
	largeLabels := flag.Int("large-labels", 2000, "label universe of the large graph")
	largeCore := flag.Float64("large-core", 0.9, "strongly connected core fraction of the large graph")
	largeReqs := flag.Int("large-requests", 24, "match requests in the large-graph scenario")
	flag.Parse()

	data := randomGraph(*dataNodes, *avgDeg, 1)
	pattern := carvePattern(data, *patNodes, 100)
	mat := simmatrix.NewLabelEquality(pattern, data)
	reach := closure.Compute(data)
	rows := closure.NewRows(reach)
	sparse := closure.NewCompIndex(reach)

	setup := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := core.NewInstance(pattern, data, mat, 0.9)
			in.SetReach(reach)
			in.SetIndex(sparse)
			in.BenchSetup()
		}
	})
	rebuild := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := core.NewInstance(pattern, data, mat, 0.9)
			in.SetReach(reach)
			in.SetIndex(closure.NewRows(reach))
			in.BenchSetup()
		}
	})
	match := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := core.NewInstance(pattern, data, mat, 0.9)
			in.SetReach(reach)
			in.SetIndex(rows)
			_, _ = in.CompMaxCardCtx(context.Background())
		}
	})
	sparseMatch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := core.NewInstance(pattern, data, mat, 0.9)
			in.SetReach(reach)
			in.SetIndex(sparse)
			_, _ = in.CompMaxCardCtx(context.Background())
		}
	})

	reqs, elapsed := engineWorkload(*engineReqs, *clients, *dataNodes, *avgDeg, *patNodes)

	rep := report{
		Timestamp:             time.Now().UTC().Format(time.RFC3339),
		GoVersion:             runtime.Version(),
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		DataNodes:             *dataNodes,
		PatternNodes:          *patNodes,
		SetupNsOp:             setup.NsPerOp(),
		SetupAllocsOp:         setup.AllocsPerOp(),
		SetupRowBuildNsOp:     rebuild.NsPerOp(),
		SetupRowBuildAllocsOp: rebuild.AllocsPerOp(),
		MatchNsOp:             match.NsPerOp(),
		MatchAllocsOp:         match.AllocsPerOp(),
		MatchBytesOp:          match.AllocedBytesPerOp(),
		SparseMatchNsOp:       sparseMatch.NsPerOp(),
		DenseIndexBytes:       int64(rows.Bytes()),
		EngineRequests:        reqs,
		EngineRequestsPerSec:  float64(reqs) / elapsed.Seconds(),
	}
	if rep.SetupNsOp > 0 {
		rep.SetupSpeedup = float64(rep.SetupRowBuildNsOp) / float64(rep.SetupNsOp)
	}

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
	log.Printf("setup %dns/%d allocs (rowbuild %dns, %.1fx), match %dns/%d allocs (sparse %dns), engine %.0f req/s → %s",
		rep.SetupNsOp, rep.SetupAllocsOp, rep.SetupRowBuildNsOp, rep.SetupSpeedup,
		rep.MatchNsOp, rep.MatchAllocsOp, rep.SparseMatchNsOp, rep.EngineRequestsPerSec, *out)

	if *largeNodes > 0 {
		runLargeScenario(largeScenarioConfig{
			out: *largeOut, nodes: *largeNodes, deg: *largeDeg,
			labels: *largeLabels, core: *largeCore,
			patNodes: *patNodes, requests: *largeReqs,
		})
	}
}

// largeReport is the BENCH_core_large.json schema: one serving-scale
// graph registered through a real engine.
type largeReport struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Components int    `json:"components"`

	// RegisterMS is the one-off preprocessing cost: SCC condensation,
	// component-closure propagation, and index construction.
	RegisterMS int64 `json:"register_ms"`

	// ResidentBytes is the catalog's resident closure memory after
	// serving. It is compared against two dense projections:
	// DenseRowsProjectionBytes — per-node row matrices (2·n²/8, both
	// directions), the naive H2 materialisation and the denominator of
	// MemoryReduction — and DenseTierProjectionBytes, what the
	// SCC-aliased dense reference rows (closure.ProjectedRowsBytes)
	// would have allocated, with its own DenseTierReduction.
	ResidentBytes            int64   `json:"resident_bytes"`
	DenseRowsProjectionBytes int64   `json:"dense_rows_projection_bytes"`
	MemoryReduction          float64 `json:"memory_reduction"`
	DenseTierProjectionBytes int64   `json:"dense_tier_projection_bytes"`
	DenseTierReduction       float64 `json:"dense_tier_reduction"`

	MatchRequests  int     `json:"match_requests"`
	MatchMsPerOp   float64 `json:"match_ms_per_op"`
	MatchedPattern bool    `json:"matched_pattern"`
}

type largeScenarioConfig struct {
	out                string
	nodes, deg, labels int
	core               float64
	patNodes, requests int
}

// runLargeScenario drives the ≥100k-node path end to end: generate,
// register, match, and report memory against the dense projection.
func runLargeScenario(cfg largeScenarioConfig) {
	if cfg.requests <= 0 {
		cfg.requests = 1 // at least one request: the ms/op division needs it
	}
	g := syngen.GenerateLarge(syngen.LargeConfig{
		Nodes: cfg.nodes, AvgDeg: cfg.deg, Labels: cfg.labels,
		CoreFraction: cfg.core, Seed: 1,
	})
	pattern := syngen.CarvePattern(g, cfg.patNodes, 2)

	eng := engine.New(engine.Options{})
	defer eng.Close()
	regStart := time.Now()
	if err := eng.Register(context.Background(), "large", g); err != nil {
		log.Fatal(err)
	}
	registerMS := time.Since(regStart).Milliseconds()

	matched := false
	matchStart := time.Now()
	for i := 0; i < cfg.requests; i++ {
		algo := engine.MaxCard
		if i%2 == 1 {
			algo = engine.MaxSim
		}
		res := eng.Match(context.Background(), engine.Request{
			Pattern: pattern, GraphName: "large", Algo: algo, Xi: 0.9,
		})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		if len(res.Mapping) > 0 {
			matched = true
		}
	}
	matchMS := float64(time.Since(matchStart).Milliseconds()) / float64(cfg.requests)

	st := eng.Catalog().Stats()
	n := int64(g.NumNodes())
	projection := 2 * n * 8 * ((n + 63) / 64)
	// The catalog holds the shared closure; reuse it for the dense
	// projection and the component count instead of recomputing.
	res, err := eng.Catalog().Resolve(context.Background(), "large", 0, catalog.NeedReach)
	reach := res.Reach
	if err != nil {
		log.Fatal(err)
	}
	rep := largeReport{
		Timestamp:                time.Now().UTC().Format(time.RFC3339),
		GoVersion:                runtime.Version(),
		Nodes:                    g.NumNodes(),
		Edges:                    g.NumEdges(),
		Components:               reach.NumComponents(),
		RegisterMS:               registerMS,
		ResidentBytes:            st.ResidentBytes,
		DenseRowsProjectionBytes: projection,
		DenseTierProjectionBytes: int64(closure.ProjectedRowsBytes(reach)),
		MatchRequests:            cfg.requests,
		MatchMsPerOp:             matchMS,
		MatchedPattern:           matched,
	}
	if st.ResidentBytes > 0 {
		rep.MemoryReduction = float64(projection) / float64(st.ResidentBytes)
		rep.DenseTierReduction = float64(rep.DenseTierProjectionBytes) / float64(st.ResidentBytes)
	}

	f, err := os.Create(cfg.out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("large: %d nodes / %d comps, register %dms, match %.1fms/op, resident %.1fMB vs per-node rows %.0fMB (%.0fx) / dense tier %.0fMB (%.0fx) → %s",
		rep.Nodes, rep.Components, rep.RegisterMS, rep.MatchMsPerOp,
		float64(rep.ResidentBytes)/1e6, float64(rep.DenseRowsProjectionBytes)/1e6,
		rep.MemoryReduction, float64(rep.DenseTierProjectionBytes)/1e6,
		rep.DenseTierReduction, cfg.out)
}

// engineWorkload pushes a fixed pool of requests through a fresh engine
// and reports (requests completed, wall time).
func engineWorkload(total, clients, dataNodes, avgDeg, patNodes int) (int, time.Duration) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	names := []string{"g0", "g1", "g2"}
	for i, name := range names {
		if err := eng.Register(context.Background(), name, randomGraph(dataNodes, avgDeg, int64(i+1))); err != nil {
			log.Fatal(err)
		}
	}
	algos := []engine.Algorithm{engine.MaxCard, engine.MaxCard11, engine.MaxSim, engine.MaxSim11}
	pool := make([]engine.Request, 48)
	for i := range pool {
		name := names[i%len(names)]
		res, err := eng.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		g := res.Graph
		if err != nil {
			log.Fatal(err)
		}
		pool[i] = engine.Request{
			Pattern:   carvePattern(g, patNodes, int64(100+i)),
			GraphName: name,
			Algo:      algos[i%len(algos)],
			Xi:        0.9,
		}
	}
	perClient := total / clients
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				if res := eng.Match(context.Background(), pool[rng.Intn(len(pool))]); res.Err != nil {
					log.Fatal(res.Err)
				}
			}
		}(c)
	}
	wg.Wait()
	return perClient * clients, time.Since(start)
}

func randomGraph(n, avgDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("L%d", i%16))
	}
	for i := 0; i < n*avgDeg; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

func carvePattern(g *graph.Graph, size int, seed int64) *graph.Graph {
	if size > g.NumNodes() {
		log.Fatalf("benchcore: pattern size %d exceeds data graph size %d", size, g.NumNodes())
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.NodeID]bool{}
	var keep []graph.NodeID
	for len(keep) < size {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}
