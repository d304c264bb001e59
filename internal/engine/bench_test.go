package engine

import (
	"context"
	"fmt"
	"testing"

	"graphmatch/internal/core"
	"graphmatch/internal/simmatrix"
)

// benchEngine registers one data graph and returns request variants
// cycling over algorithms and patterns — the serving steady state where
// the closure is always a cache hit.
func benchEngine(b *testing.B, workers, dataNodes int) (*Engine, []Request) {
	b.Helper()
	e := New(Options{Workers: workers})
	data := randomGraph(dataNodes, 4, 1)
	if err := e.Register("data", data); err != nil {
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
	data, err := e.Catalog().Get("data")
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
