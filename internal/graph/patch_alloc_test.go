package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// sparseGraph is a random graph of n nodes with average out-degree 4.
func sparseGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode("L")
	}
	for i := 0; i < 4*n; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

// freshEdges draws k edges g does not have.
func freshEdges(g *Graph, k int, seed int64) [][2]NodeID {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	var out [][2]NodeID
	for len(out) < k {
		e := [2]NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		if !g.HasEdge(e[0], e[1]) {
			out = append(out, e)
		}
	}
	return out
}

// patchBytes reports the mean bytes one single-edge ApplyPatch
// allocates on a graph of n nodes, each patch applied to the version
// the one before produced.
func patchBytes(n int) float64 { return patchBytesOn(sparseGraph(n, 1)) }

// patchBytesOn is patchBytes on a given graph.
func patchBytesOn(g *Graph) float64 {
	edges := freshEdges(g, 200, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range edges {
		g, _ = g.ApplyPatch(&Patch{AddEdges: [][2]NodeID{e}})
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(edges))
}

// TestApplyPatchAllocatesTouched pins ApplyPatch's memory contract: what
// a single-edge patch allocates is small and all but independent of the
// size of the graph.
func TestApplyPatchAllocatesTouched(t *testing.T) {
	small, large := patchBytes(2000), patchBytes(20000)
	t.Logf("bytes per single-edge patch: n=2000 %.0f, n=20000 %.0f", small, large)
	if small >= 16<<10 || large >= 16<<10 {
		t.Fatalf("a single-edge patch allocates %.0f B at n=2000 and %.0f B at n=20000, want both < 16 KB", small, large)
	}
	if large >= 2*small {
		t.Fatalf("patch allocation grows with the graph: %.0f B at n=2000, %.0f B at n=20000", small, large)
	}
}

func BenchmarkApplyPatchEdge(b *testing.B) {
	for _, n := range []int{2000, 20000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := sparseGraph(n, 1)
			edges := freshEdges(g, 4096, 2)
			b.ReportAllocs()
			b.ResetTimer()
			cur := g
			for i := 0; i < b.N; i++ {
				if i%len(edges) == 0 {
					cur = g
				}
				cur, _ = cur.ApplyPatch(&Patch{AddEdges: edges[i%len(edges) : i%len(edges)+1]})
			}
		})
	}
}
