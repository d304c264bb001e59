// Command benchtrace measures what request tracing costs on the
// benchengine workload and emits BENCH_trace.json. Four configurations
// run the same fixed request pool:
//
//	baseline  Options{NoTrace}: the pre-tracing engine
//	off       tracing available (flight recorder allocated) but this
//	          traffic untraced — the hot path of a server whose callers
//	          did not opt in, which must stay free
//	on        every request runs under a root span, the full span tree
//	          recorded into the flight recorder
//	explain   tracing on plus the ?explain=1 work: a snapshot and
//	          stage derivation per request
//
// Configurations alternate round-robin across -rounds passes (so CPU
// frequency drift hits all of them equally) and the best pass per
// configuration counts. The run exits non-zero when the off/baseline
// throughput ratio falls below -min-off-ratio: threading trace hooks
// through every layer must not slow down untraced traffic.
//
//	benchtrace -out BENCH_trace.json -requests 4000 -clients 8
//	benchtrace -short        # CI-sized run
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
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/trace"
)

// report is the BENCH_trace.json schema.
type report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Requests   int    `json:"requests"`
	Rounds     int    `json:"rounds"`
	Short      bool   `json:"short"`

	BaselineRPS float64 `json:"baseline_rps"`
	OffRPS      float64 `json:"off_rps"`
	OnRPS       float64 `json:"on_rps"`
	ExplainRPS  float64 `json:"explain_rps"`

	// Ratios are against the untraced baseline; ratio_off gates CI.
	RatioOff     float64 `json:"ratio_off"`
	RatioOn      float64 `json:"ratio_on"`
	RatioExplain float64 `json:"ratio_explain"`
	MinOffRatio  float64 `json:"min_off_ratio"`
	Pass         bool    `json:"pass"`

	// TracesRecorded and SpansRecorded sanity-check that the "on" and
	// "explain" passes actually traced (a zero here would mean the
	// ratios measured nothing).
	TracesRecorded uint64 `json:"traces_recorded"`
}

// mode selects how much tracing work one configuration does.
type mode int

const (
	modeBaseline mode = iota // NoTrace engine, plain contexts
	modeOff                  // recorder on, this traffic untraced
	modeOn                   // root span per request
	modeExplain              // root span + snapshot + stage derivation
)

var modeNames = map[mode]string{
	modeBaseline: "baseline", modeOff: "off", modeOn: "on", modeExplain: "explain",
}

func main() {
	out := flag.String("out", "BENCH_trace.json", "output path")
	totalReqs := flag.Int("requests", 4000, "match requests per pass")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	workers := flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	rounds := flag.Int("rounds", 3, "alternating passes per configuration (best counts)")
	minOffRatio := flag.Float64("min-off-ratio", 0.95, "fail when off/baseline throughput falls below this")
	short := flag.Bool("short", false, "CI-sized run (fewer requests, 2 rounds)")
	flag.Parse()
	if *short {
		*totalReqs = 1200
		if *rounds > 2 {
			*rounds = 2
		}
	}

	best := map[mode]float64{}
	var traced uint64
	for round := 0; round < *rounds; round++ {
		for _, m := range []mode{modeBaseline, modeOff, modeOn, modeExplain} {
			rps, n := runPass(m, *workers, *clients, *totalReqs)
			if rps > best[m] {
				best[m] = rps
			}
			traced += n
			log.Printf("round %d %-8s %8.0f req/s", round+1, modeNames[m], rps)
		}
	}

	rep := report{
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Clients:        *clients,
		Requests:       *totalReqs,
		Rounds:         *rounds,
		Short:          *short,
		BaselineRPS:    round2(best[modeBaseline]),
		OffRPS:         round2(best[modeOff]),
		OnRPS:          round2(best[modeOn]),
		ExplainRPS:     round2(best[modeExplain]),
		RatioOff:       round4(best[modeOff] / best[modeBaseline]),
		RatioOn:        round4(best[modeOn] / best[modeBaseline]),
		RatioExplain:   round4(best[modeExplain] / best[modeBaseline]),
		MinOffRatio:    *minOffRatio,
		TracesRecorded: traced,
	}
	rep.Pass = rep.RatioOff >= *minOffRatio && traced > 0

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	f.Close()
	log.Printf("baseline %.0f, off %.0f (×%.3f), on %.0f (×%.3f), explain %.0f (×%.3f) req/s → %s",
		rep.BaselineRPS, rep.OffRPS, rep.RatioOff, rep.OnRPS, rep.RatioOn,
		rep.ExplainRPS, rep.RatioExplain, *out)
	if !rep.Pass {
		log.Fatalf("FAIL: tracing-off ratio %.3f below %.2f (tracing hooks slowed untraced traffic)",
			rep.RatioOff, *minOffRatio)
	}
}

// runPass opens a fresh engine in the mode's configuration, drives the
// benchengine workload through it, and returns the throughput plus the
// number of traces it recorded.
func runPass(m mode, workers, clients, totalReqs int) (rps float64, traced uint64) {
	opts := engine.Options{Workers: workers}
	if m == modeBaseline {
		opts.NoTrace = true
	}
	eng := engine.New(opts)
	defer eng.Close()

	names := make([]string, 3)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		if err := eng.Register(names[i], randomGraph(400, 4, int64(i+1))); err != nil {
			log.Fatal(err)
		}
	}
	algos := []engine.Algorithm{engine.MaxCard, engine.MaxCard11, engine.MaxSim, engine.MaxSim11}
	pool := make([]engine.Request, 48)
	for i := range pool {
		name := names[i%len(names)]
		data, err := eng.Catalog().Get(name)
		if err != nil {
			log.Fatal(err)
		}
		pool[i] = engine.Request{
			Pattern:   carvePattern(data, 10, int64(100+i)),
			GraphName: name,
			Algo:      algos[i%len(algos)],
			Xi:        0.9,
		}
	}

	rec := eng.Tracer()
	perClient := totalReqs / clients
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				req := pool[rng.Intn(len(pool))]
				ctx := context.Background()
				var sp trace.Span
				if m >= modeOn {
					// What the httpapi shell does per request: derive a
					// trace id from the request identity and open the
					// root span.
					id := fmt.Sprintf("%08x%08x", c, i)
					sp = rec.StartTrace(trace.DeriveTraceID(id), "bench.match", id)
					ctx = trace.ContextWithSpan(ctx, sp)
				}
				if res := eng.Match(ctx, req); res.Err != nil {
					log.Fatal(res.Err)
				}
				if m == modeExplain {
					// The ?explain=1 work: snapshot the live tree and
					// derive the stage breakdown before sealing.
					if td, ok := sp.Snapshot(); ok && len(td.Stages()) == 0 {
						log.Fatalf("explain pass produced no stages")
					}
				}
				sp.End()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if rec != nil {
		traced = rec.Stats().Completed
	}
	return float64(perClient*clients) / elapsed.Seconds(), traced
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
func round4(v float64) float64 { return float64(int64(v*10000+0.5)) / 10000 }

// randomGraph and carvePattern mirror the benchengine workload.
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
