package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"graphmatch/internal/catalog"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

// benchEngine registers one data graph and returns request variants
// cycling over algorithms and patterns — the serving steady state where
// the closure is always a cache hit.
func benchEngine(b *testing.B, workers, dataNodes int) (*Engine, []Request) {
	b.Helper()
	e := New(Options{Workers: workers})
	data := randomGraph(dataNodes, 4, 1)
	if err := e.Register(context.Background(), "data", data); err != nil {
		b.Fatal(err)
	}
	var reqs []Request
	for _, algo := range []Algorithm{MaxCard, MaxCard11, MaxSim, MaxSim11} {
		for p := 0; p < 4; p++ {
			reqs = append(reqs, Request{
				Pattern:   patternFrom(data, 8, int64(p)),
				GraphName: "data",
				Algo:      algo,
				Xi:        0.9,
			})
		}
	}
	return e, reqs
}

// BenchmarkMatchSequential measures single-request latency through the
// scheduler (queue + worker hop + shared closure lookup + matching).
func BenchmarkMatchSequential(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("data=%d", n), func(b *testing.B) {
			e, reqs := benchEngine(b, 1, n)
			defer e.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.Match(ctx, reqs[i%len(reqs)]); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(e.Catalog().Stats().HitRate()*100, "closure-hit%")
		})
	}
}

// BenchmarkMatchParallel measures throughput with many client
// goroutines over the full worker pool — the serving regime.
func BenchmarkMatchParallel(b *testing.B) {
	e, reqs := benchEngine(b, 0, 400)
	defer e.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		i := 0
		for pb.Next() {
			if res := e.Match(ctx, reqs[i%len(reqs)]); res.Err != nil {
				b.Fatal(res.Err)
			}
			i++
		}
	})
	b.ReportMetric(e.Catalog().Stats().HitRate()*100, "closure-hit%")
}

// BenchmarkMatchBatch measures batch dispatch of distinct requests.
func BenchmarkMatchBatch(b *testing.B) {
	e, reqs := benchEngine(b, 0, 400)
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range e.MatchBatch(ctx, reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.ReportMetric(float64(len(reqs)), "reqs/batch")
}

// BenchmarkSharedVsPrivateClosure quantifies the tentpole win: the same
// request stream with the catalog's shared index versus a fresh
// core.Instance closure per request (the seed's behaviour).
func BenchmarkSharedVsPrivateClosure(b *testing.B) {
	e, reqs := benchEngine(b, 1, 400)
	defer e.Close()
	res, err := e.Catalog().Resolve(context.Background(), "data", 0, catalog.NeedGraph)
	data := res.Graph
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := e.Match(ctx, reqs[i%len(reqs)]); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("private", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req := reqs[i%len(reqs)]
			// A fresh instance per request recomputes the closure —
			// the seed's per-Matcher behaviour.
			in := core.NewInstance(req.Pattern, data, simmatrix.NewLabelEquality(req.Pattern, data), req.Xi)
			ctx := context.Background()
			switch req.Algo {
			case MaxCard:
				in.CompMaxCardCtx(ctx)
			case MaxCard11:
				in.CompMaxCard11Ctx(ctx)
			case MaxSim:
				in.CompMaxSimCtx(ctx)
			case MaxSim11:
				in.CompMaxSim11Ctx(ctx)
			}
		}
	})
}

// BenchmarkSearch times one search at a time over a web_search-sized
// catalog (10 sites × 11 versions × 60 pages, a 12-hub skeleton,
// maxsim, ξ = 0.75, K = 5): the full scan, where every graph is matched
// and the per-task hand-off dominates, and the default search, where
// stage 2 stops once no bound can enter the top-k.
func BenchmarkSearch(b *testing.B) {
	e := New(Options{Workers: 2, MaxClosures: 128})
	defer e.Close()
	var pattern *graph.Graph
	for s := 0; s < 10; s++ {
		arch := webgen.Generate(webgen.Config{Category: webgen.Category(s%3 + 1), Pages: 60, Versions: 11, Seed: int64(s)})
		for v, g := range arch.Versions {
			if err := e.Register(context.Background(), fmt.Sprintf("site%02d.v%02d", s, v), g); err != nil {
				b.Fatal(err)
			}
		}
		if s == 0 {
			pattern = webgen.TopKSkeleton(arch.Versions[5], 12)
		}
	}
	for _, brute := range []bool{true, false} {
		req := SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: 0.75, Sim: SimContent, K: 5, NoPrefilter: brute}
		e.Search(context.Background(), req) // build every summary, matrix index and closure
		b.Run(fmt.Sprintf("brute=%v", brute), func(b *testing.B) {
			for b.Loop() {
				if res := e.Search(context.Background(), req); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkPatchStorm is the baseline a store-level group commit must
// beat: 8 writers patch one 5 000-node bow-tie on a durable engine, and
// every patch is its own catalog commit and WAL fsync before its ack.
// Patch i inserts the i-th IN→core edge, distinct from every other, so
// any interleaving is valid. patches/s is the acknowledged rate.
func BenchmarkPatchStorm(b *testing.B) {
	g := syngen.GenerateLarge(syngen.LargeConfig{Nodes: 5000, AvgDeg: 5, CoreFraction: 0.9, Seed: 43})
	mix := newMutateMix(g, 1)
	e, err := Open(Options{Workers: 2, StorePath: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if err := e.Register(ctx, "web", g); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < b.N; i = int(next.Add(1) - 1) {
				edge := [2]graph.NodeID{mix.ins[i%len(mix.ins)], mix.cores[i/len(mix.ins)%len(mix.cores)]}
				if _, err := e.ApplyPatch(ctx, "web", &graph.Patch{AddEdges: [][2]graph.NodeID{edge}}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "patches/s")
}
