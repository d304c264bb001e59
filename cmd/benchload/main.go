// Command benchload is the load-shedding benchmark of the serving
// stack. It stands up the full HTTP stack
// (httpapi over engine) in-process, measures sustainable capacity
// closed-loop, then drives open-loop phases at 1× and 5× that capacity
// and records what the overload protection does: shed rate, error
// rate, and the latency distribution of the served requests.
//
//	go run ./cmd/benchload -out BENCH_load.json
//	go run ./cmd/benchload -short   # CI-sized phases
//
// Two properties gate the run (non-zero exit when violated):
//
//  1. shedding: at 5× capacity the admission controller must shed a
//     non-zero fraction instead of queueing without bound;
//  2. bounded latency: the p99 of requests the 5× phase *served* must
//     stay under the bound (default 1s) — load shedding is working
//     precisely when excess load turns into fast 429s, not into a
//     latency collapse of the admitted work.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
)

// pathGraph and cyclePattern mirror the overload-test fixtures: an
// unsatisfiable k-cycle decide against a directed path gives a
// deterministic, tunable unit of matcher work.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("P")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.Finish()
	return g
}

func cyclePattern(k int) *graph.Graph {
	g := graph.New(k)
	for i := 0; i < k; i++ {
		g.AddNode("P")
	}
	for i := 0; i < k; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%k))
	}
	g.Finish()
	return g
}

// matchBody renders the canonical slow request; every request is its
// own matcher task.
func matchBody() []byte {
	body, _ := json.Marshal(map[string]any{
		"pattern": cyclePattern(3),
		"graph":   "path",
		"algo":    "decide",
		"xi":      0.5,
	})
	return body
}

// newServer builds the full serving stack the way phomd wires it:
// admission control at queue+workers, a request timeout, and every
// layer instrumented.
func newServer(workers, graphSize int) (*httptest.Server, *engine.Engine) {
	e := engine.New(engine.Options{
		Workers:    workers,
		MaxPending: -1, // queue depth (4×workers) + workers
	})
	if err := e.Register(context.Background(), "path", pathGraph(graphSize)); err != nil {
		log.Fatalf("benchload: %v", err)
	}
	ts := httptest.NewServer(httpapi.NewWithOptions(e, httpapi.Options{
		RequestTimeout: 2 * time.Second,
	}))
	return ts, e
}

func newClient() *http.Client {
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	return &http.Client{Transport: tr}
}

// closedLoop drives `clients` concurrent request loops for `d` and
// returns the completed-request throughput (every request either 200
// or — rare at closed loop — 429/504, all counted as completions; the
// OK rate is returned for sanity).
func closedLoop(url string, clients int, d time.Duration) (rps float64, okRate float64) {
	var done, ok atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := newClient()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(url+"/v1/match", "application/json",
					bytes.NewReader(matchBody()))
				if err == nil {
					drain(resp)
					if resp.StatusCode == http.StatusOK {
						ok.Add(1)
					}
				}
				done.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := done.Load()
	if total == 0 {
		return 0, 0
	}
	return float64(total) / elapsed, float64(ok.Load()) / float64(total)
}

func drain(resp *http.Response) {
	var buf [512]byte
	for {
		if _, err := resp.Body.Read(buf[:]); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// phaseResult is one open-loop phase of BENCH_load.json.
type phaseResult struct {
	Name      string  `json:"name"`
	TargetRPS float64 `json:"target_rps"`
	Sent      int     `json:"sent"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed_429"`
	Timeout   int     `json:"timeout_504"`
	OtherErr  int     `json:"other_errors"`
	ShedRate  float64 `json:"shed_rate"`
	P50MS     float64 `json:"served_p50_ms"`
	P99MS     float64 `json:"served_p99_ms"`
	MaxMS     float64 `json:"served_max_ms"`
	ShedP99MS float64 `json:"shed_p99_ms"`
}

// openLoop fires requests at a fixed arrival rate (no waiting for
// responses — the arrival process is independent of server state,
// which is what makes overload visible) and classifies every outcome.
func openLoop(name, url string, rate float64, d time.Duration) phaseResult {
	client := newClient()
	type outcome struct {
		code int
		ms   float64
	}
	var mu sync.Mutex
	var outcomes []outcome
	var wg sync.WaitGroup
	fire := func() {
		defer wg.Done()
		start := time.Now()
		resp, err := client.Post(url+"/v1/match", "application/json",
			bytes.NewReader(matchBody()))
		ms := float64(time.Since(start).Microseconds()) / 1000
		code := 0
		if err == nil {
			code = resp.StatusCode
			drain(resp)
		}
		mu.Lock()
		outcomes = append(outcomes, outcome{code, ms})
		mu.Unlock()
	}
	// Self-pacing generator with catch-up: each wake-up fires however
	// many arrivals the schedule is owed, so the offered rate holds even
	// when goroutine scheduling jitters under overload (a plain ticker
	// silently drops ticks and under-delivers exactly when overload
	// makes the measurement interesting).
	start := time.Now()
	sent := 0
	for {
		elapsed := time.Since(start)
		if elapsed >= d {
			break
		}
		due := int(elapsed.Seconds()*rate) + 1
		for ; sent < due; sent++ {
			wg.Add(1)
			go fire()
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	res := phaseResult{Name: name, TargetRPS: rate, Sent: sent}
	var served, shed []float64
	for _, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			res.OK++
			served = append(served, o.ms)
		case http.StatusTooManyRequests:
			res.Shed++
			shed = append(shed, o.ms)
		case http.StatusGatewayTimeout:
			res.Timeout++
		default:
			res.OtherErr++
		}
	}
	if res.Sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Sent)
	}
	res.P50MS = percentile(served, 0.50)
	res.P99MS = percentile(served, 0.99)
	res.MaxMS = percentile(served, 1.0)
	res.ShedP99MS = percentile(shed, 0.99)
	return res
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// report is the BENCH_load.json document.
type report struct {
	Config struct {
		Workers   int     `json:"workers"`
		GraphSize int     `json:"graph_size"`
		PhaseSecs float64 `json:"phase_seconds"`
		Short     bool    `json:"short"`
	} `json:"config"`
	Capacity struct {
		RPS          float64 `json:"rps"`
		ClosedLoopOK float64 `json:"closed_loop_ok_rate"`
	} `json:"capacity"`
	Phases []phaseResult `json:"phases"`
	Gates  struct {
		ShedAt5x       bool `json:"shed_nonzero_at_5x"`
		P99BoundedAt5x bool `json:"p99_bounded_at_5x"`
	} `json:"gates"`
	Pass bool `json:"pass"`
}

func main() {
	out := flag.String("out", "BENCH_load.json", "report path")
	short := flag.Bool("short", false, "CI-sized phases (shorter, smaller graph)")
	workers := flag.Int("workers", 2, "engine worker-pool size")
	graphSize := flag.Int("graph-size", 140, "data-path length (request cost knob)")
	phaseSec := flag.Float64("phase", 3, "seconds per phase")
	p99Bound := flag.Float64("p99-bound", 1000, "gate: served p99 at 5x must stay under this many ms")
	flag.Parse()
	if *short {
		*phaseSec = 1
		*graphSize = 110
	}
	phase := time.Duration(*phaseSec * float64(time.Second))

	var rep report
	rep.Config.Workers = *workers
	rep.Config.GraphSize = *graphSize
	rep.Config.PhaseSecs = *phaseSec
	rep.Config.Short = *short

	log.Printf("measuring closed-loop capacity")
	ts, eng := newServer(*workers, *graphSize)
	rps, okRate := closedLoop(ts.URL, 2**workers, phase)
	rep.Capacity.RPS = round2(rps)
	rep.Capacity.ClosedLoopOK = round2(okRate)

	// Open-loop phases, with rates anchored to the measured capacity of
	// this machine.
	log.Printf("open loop at 1x (%.0f rps) for %v", rps, phase)
	rep.Phases = append(rep.Phases, openLoop("1x", ts.URL, rps, phase))
	log.Printf("open loop at 5x (%.0f rps) for %v", 5*rps, phase)
	p5 := openLoop("5x", ts.URL, 5*rps, phase)
	rep.Phases = append(rep.Phases, p5)
	st := eng.Stats()
	log.Printf("engine after phases: executed %d, shed %d, errors %d", st.Executed, st.Shed, st.Errors)
	ts.Close()
	eng.Close()

	rep.Gates.ShedAt5x = p5.Shed > 0
	rep.Gates.P99BoundedAt5x = p5.OK > 0 && p5.P99MS < *p99Bound
	rep.Pass = rep.Gates.ShedAt5x && rep.Gates.P99BoundedAt5x

	data, _ := json.MarshalIndent(rep, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("benchload: %v", err)
	}
	fmt.Printf("%s\n", data)
	if !rep.Pass {
		log.Fatalf("benchload: gates failed (see %s)", *out)
	}
	log.Printf("benchload: all gates passed (%s)", *out)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
