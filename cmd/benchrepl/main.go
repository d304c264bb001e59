// Command benchrepl measures WAL-shipping replication (internal/repl)
// end to end, over a real loopback HTTP stream: a primary engine
// serving GET /v1/replicate/since/{seq} and a follower engine tailing
// it through the same code path phomd -follow uses.
//
// Three phases:
//
//   - catch-up: the primary is fully built (registers + patches), then
//     a cold follower connects and replays the whole history — the
//     bulk throughput of the stream, in ops/sec and MB/sec;
//   - steady state: a mutation loop drives the primary while the
//     follower tails live; replication lag is sampled continuously —
//     the staleness a follower's reads actually see;
//   - convergence: mutations stop, the follower must reach the
//     primary's head, and both engines must answer identical match and
//     search probes.
//
// benchrepl emits BENCH_repl.json and exits non-zero when the follower
// fails to converge or serves divergent results — it is a correctness
// gate as much as a benchmark.
//
//	benchrepl -out BENCH_repl.json          # full run
//	benchrepl -short -out BENCH_repl.json   # CI-sized
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/repl"
	"graphmatch/internal/webgen"
)

// report is the BENCH_repl.json schema.
type report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Graphs     int    `json:"graphs"`
	Pages      int    `json:"pages_per_site"`

	// Catch-up: a cold follower replaying the primary's full history.
	CatchupOps       uint64  `json:"catchup_ops"`
	CatchupWALBytes  int64   `json:"catchup_wal_bytes"`
	CatchupSec       float64 `json:"catchup_sec"`
	CatchupOpsPerSec float64 `json:"catchup_ops_per_sec"`
	CatchupMBPerSec  float64 `json:"catchup_mb_per_sec"`

	// Steady state: lag sampled while a mutation loop drives the
	// primary. Lag is in ops (sequence-number distance).
	SteadySec       float64 `json:"steady_sec"`
	SteadyMutations int     `json:"steady_mutations"`
	LagSamples      int     `json:"lag_samples"`
	LagMeanSeq      float64 `json:"lag_mean_seq"`
	LagMaxSeq       uint64  `json:"lag_max_seq"`

	// Convergence after the storm stops.
	ConvergeSec float64 `json:"converge_sec"`
	Equivalent  bool    `json:"equivalent"`
}

func main() {
	out := flag.String("out", "BENCH_repl.json", "output path")
	sites := flag.Int("sites", 6, "distinct web sites on the primary")
	pages := flag.Int("pages", 150, "pages per site")
	patches := flag.Int("patches", 200, "patches applied before the follower connects (the catch-up history)")
	steady := flag.Duration("steady", 5*time.Second, "duration of the live mutation phase")
	short := flag.Bool("short", false, "CI-sized run")
	flag.Parse()
	if *short {
		*pages = 50
		*patches = 60
		*steady = 1500 * time.Millisecond
	}

	work, err := os.MkdirTemp("", "benchrepl-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// Build the primary's full history before any follower exists.
	primary, err := engine.Open(engine.Options{StorePath: work + "/primary"})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	rng := rand.New(rand.NewSource(1))
	categories := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	names := make([]string, 0, *sites)
	var patterns []*graph.Graph
	for s := 0; s < *sites; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: categories[s%len(categories)],
			Pages:    *pages,
			Versions: 1,
			Seed:     int64(100 + s),
		})
		name := fmt.Sprintf("site%02d", s)
		if err := primary.Register(context.Background(), name, arch.Versions[0]); err != nil {
			log.Fatal(err)
		}
		names = append(names, name)
		patterns = append(patterns, webgen.TopKSkeleton(arch.Versions[0], 6))
	}
	mutate := func() {
		name := names[rng.Intn(len(names))]
		res, err := primary.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		g := res.Graph
		if err != nil {
			log.Fatal(err)
		}
		if _, err := primary.ApplyPatch(context.Background(), name, smallPatch(rng, g)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < *patches; i++ {
		mutate()
	}
	pst, _ := primary.StoreStats()
	log.Printf("primary built: %d graphs, %d ops, %.1f MB of WAL",
		len(names), pst.LastSeq, float64(pst.WALBytes)/(1<<20))

	// Serve the replication stream on a loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/replicate/since/{seq}", repl.NewHandler(primary.ReplSource(), repl.HandlerOptions{
		Poll: 2 * time.Millisecond, CheckpointEvery: 20 * time.Millisecond,
	}))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	rep := report{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Graphs:          len(names),
		Pages:           *pages,
		CatchupOps:      pst.LastSeq,
		CatchupWALBytes: pst.WALBytes,
	}

	// Phase 1: cold follower replays the whole history.
	log.Printf("catch-up: cold follower replaying %d ops", pst.LastSeq)
	start := time.Now()
	follower, err := engine.Open(engine.Options{
		StorePath: work + "/follower",
		FollowURL: "http://" + ln.Addr().String(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer follower.Close()
	waitSynced(follower, primary, 120*time.Second)
	rep.CatchupSec = time.Since(start).Seconds()
	rep.CatchupOpsPerSec = float64(rep.CatchupOps) / rep.CatchupSec
	rep.CatchupMBPerSec = float64(rep.CatchupWALBytes) / (1 << 20) / rep.CatchupSec
	log.Printf("catch-up: %d ops in %.2fs (%.0f ops/s, %.1f MB/s)",
		rep.CatchupOps, rep.CatchupSec, rep.CatchupOpsPerSec, rep.CatchupMBPerSec)

	// Phase 2: live mutations with continuous lag sampling.
	log.Printf("steady state: mutating for %v", *steady)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	var lagSum float64
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rs, _ := follower.ReplStats()
				rep.LagSamples++
				lagSum += float64(rs.LagSeq)
				if rs.LagSeq > rep.LagMaxSeq {
					rep.LagMaxSeq = rs.LagSeq
				}
			}
		}
	}()
	steadyStart := time.Now()
	for time.Since(steadyStart) < *steady {
		mutate()
		rep.SteadyMutations++
		time.Sleep(2 * time.Millisecond)
	}
	rep.SteadySec = time.Since(steadyStart).Seconds()
	close(stop)
	<-sampled
	if rep.LagSamples > 0 {
		rep.LagMeanSeq = lagSum / float64(rep.LagSamples)
	}
	log.Printf("steady state: %d mutations in %.2fs; lag mean %.1f ops, max %d ops (%d samples)",
		rep.SteadyMutations, rep.SteadySec, rep.LagMeanSeq, rep.LagMaxSeq, rep.LagSamples)

	// Phase 3: convergence and the equivalence gate.
	start = time.Now()
	waitSynced(follower, primary, 60*time.Second)
	rep.ConvergeSec = time.Since(start).Seconds()
	rep.Equivalent = equivalent(follower, primary, patterns)
	log.Printf("converged in %.2fs, equivalent=%v", rep.ConvergeSec, rep.Equivalent)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	encoder := json.NewEncoder(f)
	encoder.SetIndent("", "  ")
	if err := encoder.Encode(rep); err != nil {
		log.Fatal(err)
	}
	f.Close()
	log.Printf("wrote %s", *out)
	if !rep.Equivalent {
		log.Fatal("benchrepl: follower diverged from primary — failing")
	}
}

// smallPatch is a modest random patch: a new page, a content rewrite,
// a couple of link flips.
func smallPatch(rng *rand.Rand, g *graph.Graph) *graph.Patch {
	n := g.NumNodes()
	p := &graph.Patch{
		AddNodes: []graph.Node{{
			Label:   "patched",
			Weight:  1,
			Content: fmt.Sprintf("patched page %d", rng.Intn(10000)),
		}},
		SetContent: []graph.ContentUpdate{{
			Node:    graph.NodeID(rng.Intn(n)),
			Content: fmt.Sprintf("rewritten content %d", rng.Intn(10000)),
		}},
	}
	for i := 0; i < 2; i++ {
		p.AddEdges = append(p.AddEdges, [2]graph.NodeID{
			graph.NodeID(rng.Intn(n + 1)), graph.NodeID(rng.Intn(n + 1)),
		})
	}
	return p
}

// waitSynced blocks until the follower has applied everything the
// primary's store holds; a timeout is fatal (non-convergence is a
// failure, not a skipped measurement).
func waitSynced(f, p *engine.Engine, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		rs, _ := f.ReplStats()
		ps, _ := p.StoreStats()
		if rs.SyncedOnce && !rs.Diverged && rs.LastApplied == ps.LastSeq {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("benchrepl: follower never converged: follower at seq %d (diverged=%v, err=%q), primary at %d",
				rs.LastApplied, rs.Diverged, rs.LastError, ps.LastSeq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// equivalent replays identical match and search probes against both
// engines and reports whether every deterministic field agrees.
func equivalent(a, b *engine.Engine, patterns []*graph.Graph) bool {
	if !reflect.DeepEqual(a.Catalog().Names(), b.Catalog().Names()) {
		log.Printf("catalogs diverge: %v vs %v", a.Catalog().Names(), b.Catalog().Names())
		return false
	}
	ctx := context.Background()
	for _, pattern := range patterns {
		for _, name := range a.Catalog().Names() {
			req := engine.Request{Pattern: pattern, GraphName: name, Algo: engine.MaxCard, Xi: 0.7, Sim: engine.SimContent}
			ra, rb := a.Match(ctx, req), b.Match(ctx, req)
			if !reflect.DeepEqual(ra.Mapping, rb.Mapping) || ra.QualCard != rb.QualCard {
				log.Printf("match diverges on %q", name)
				return false
			}
		}
		sreq := engine.SearchRequest{Pattern: pattern, Algo: engine.MaxSim, Xi: 0.7, Sim: engine.SimContent, K: 5}
		sa, sb := a.Search(ctx, sreq), b.Search(ctx, sreq)
		if sa.Err != nil || sb.Err != nil || !reflect.DeepEqual(sa.Hits, sb.Hits) {
			log.Printf("search diverges: %v vs %v (err %v / %v)", sa.Hits, sb.Hits, sa.Err, sb.Err)
			return false
		}
	}
	return true
}
