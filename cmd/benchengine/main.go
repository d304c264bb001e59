// Command benchengine drives a synthetic serving workload through the
// match engine in-process and emits a machine-readable performance
// snapshot — the start of the repo's perf trajectory. CI runs it and
// archives the output so regressions in throughput, tail latency, or
// closure-cache effectiveness are visible per commit.
//
//	benchengine -out BENCH_engine.json -requests 2000 -clients 8
//
// The workload registers a handful of random data graphs, then has
// concurrent clients issue single matches and batches over a fixed
// request pool (so repeated requests hit the shared closure cache).
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
	"sort"
	"sync"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
)

// report is the BENCH_engine.json schema.
type report struct {
	Timestamp      string  `json:"timestamp"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Workers        int     `json:"workers"`
	Clients        int     `json:"clients"`
	DataGraphs     int     `json:"data_graphs"`
	DataNodes      int     `json:"data_nodes_per_graph"`
	PatternNodes   int     `json:"pattern_nodes"`
	Requests       uint64  `json:"requests"`
	Executed       uint64  `json:"executed"`
	Errors         uint64  `json:"errors"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	P50LatencyUS   int64   `json:"p50_latency_us"`
	P90LatencyUS   int64   `json:"p90_latency_us"`
	P99LatencyUS   int64   `json:"p99_latency_us"`
	MaxLatencyUS   int64   `json:"max_latency_us"`
	CacheHits      uint64  `json:"closure_cache_hits"`
	CacheMisses    uint64  `json:"closure_cache_misses"`
	CacheHitRate   float64 `json:"closure_cache_hit_rate"`
}

func main() {
	out := flag.String("out", "BENCH_engine.json", "output path")
	totalReqs := flag.Int("requests", 2000, "total match requests to issue")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	workers := flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	dataGraphs := flag.Int("graphs", 3, "registered data graphs")
	dataNodes := flag.Int("nodes", 400, "nodes per data graph")
	patNodes := flag.Int("pattern", 10, "nodes per pattern")
	poolSize := flag.Int("pool", 48, "distinct requests in the traffic pool")
	flag.Parse()

	eng := engine.New(engine.Options{Workers: *workers})
	defer eng.Close()

	names := make([]string, *dataGraphs)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		if err := eng.Register(context.Background(), names[i], randomGraph(*dataNodes, 4, int64(i+1))); err != nil {
			log.Fatal(err)
		}
	}

	// A fixed pool of requests: real traffic repeats patterns, which is
	// what the closure cache exploits.
	algos := []engine.Algorithm{engine.MaxCard, engine.MaxCard11, engine.MaxSim, engine.MaxSim11}
	pool := make([]engine.Request, *poolSize)
	for i := range pool {
		name := names[i%len(names)]
		res, err := eng.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		data := res.Graph
		if err != nil {
			log.Fatal(err)
		}
		pool[i] = engine.Request{
			Pattern:   carvePattern(data, *patNodes, int64(100+i)),
			GraphName: name,
			Algo:      algos[i%len(algos)],
			Xi:        0.9,
		}
	}

	perClient := *totalReqs / *clients
	latencies := make([][]time.Duration, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			ctx := context.Background()
			lats := make([]time.Duration, 0, perClient)
			sent := 0
			for sent < perClient {
				if sent%5 == 4 {
					// Every fifth action is a 4-request batch.
					n := min(4, perClient-sent)
					reqs := make([]engine.Request, n)
					for j := range reqs {
						reqs[j] = pool[rng.Intn(len(pool))]
					}
					t0 := time.Now()
					for _, res := range eng.MatchBatch(ctx, reqs) {
						if res.Err != nil {
							log.Fatal(res.Err)
						}
					}
					// Attribute the batch wall time to each member:
					// that is what a batch client experiences.
					d := time.Since(t0)
					for j := 0; j < n; j++ {
						lats = append(lats, d)
					}
					sent += n
				} else {
					req := pool[rng.Intn(len(pool))]
					t0 := time.Now()
					if res := eng.Match(ctx, req); res.Err != nil {
						log.Fatal(res.Err)
					}
					lats = append(lats, time.Since(t0))
					sent++
				}
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i].Microseconds()
	}

	es := eng.Stats()
	cs := eng.Catalog().Stats()
	rep := report{
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Workers:        es.Workers,
		Clients:        *clients,
		DataGraphs:     *dataGraphs,
		DataNodes:      *dataNodes,
		PatternNodes:   *patNodes,
		Requests:       es.Requests,
		Executed:       es.Executed,
		Errors:         es.Errors,
		ElapsedSec:     elapsed.Seconds(),
		RequestsPerSec: float64(len(all)) / elapsed.Seconds(),
		P50LatencyUS:   pct(0.50),
		P90LatencyUS:   pct(0.90),
		P99LatencyUS:   pct(0.99),
		MaxLatencyUS:   pct(1.0),
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheHitRate:   cs.HitRate(),
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
	log.Printf("%d requests in %.2fs: %.0f req/s, p50 %dµs p99 %dµs, closure hit rate %.0f%% → %s",
		len(all), rep.ElapsedSec, rep.RequestsPerSec, rep.P50LatencyUS, rep.P99LatencyUS,
		rep.CacheHitRate*100, *out)
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
		log.Fatalf("benchengine: pattern size %d exceeds data graph size %d", size, g.NumNodes())
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
