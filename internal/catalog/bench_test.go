package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"graphmatch/internal/graph"
)

// randomGraph builds an n-node random digraph with the given average
// out-degree, the shape the closure cache is sized for.
func randomGraph(n, avgDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i%64))
	}
	for i := 0; i < n*avgDeg; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

// BenchmarkReachHit measures the steady-state cost of a shared-closure
// lookup — the per-request overhead the catalog adds to a match.
func BenchmarkReachHit(b *testing.B) {
	c := New(8)
	if err := c.RegisterCtx(context.Background(), "g", randomGraph(500, 4, 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(context.Background(), "g", 0, NeedReach); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.Stats().HitRate()*100, "hit%")
}

// BenchmarkReachMiss measures a full closure build by thrashing a
// capacity-1 cache between two graphs — the cost an eviction re-incurs.
func BenchmarkReachMiss(b *testing.B) {
	for _, n := range []int{200, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := New(1)
			if err := c.RegisterCtx(context.Background(), "a", randomGraph(n, 4, 1)); err != nil {
				b.Fatal(err)
			}
			if err := c.RegisterCtx(context.Background(), "b", randomGraph(n, 4, 2)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := "a"
				if i%2 == 0 {
					name = "b"
				}
				if _, err := c.Resolve(context.Background(), name, 0, NeedReach); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReachParallel measures contention on the catalog lock under
// concurrent hit traffic.
func BenchmarkReachParallel(b *testing.B) {
	c := New(8)
	if err := c.RegisterCtx(context.Background(), "g", randomGraph(500, 4, 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Resolve(context.Background(), "g", 0, NeedReach); err != nil {
				b.Fatal(err)
			}
		}
	})
}
