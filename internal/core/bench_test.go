package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/syngen"
)

// Benchmarks for the serving hot path: per-request matcher setup and
// the greedyMatch recursion, under the catalog-cached regime (the
// data graph's closure and closure rows are built once and shared, as
// internal/catalog does for every registered graph).
//
// BenchmarkMatcherSetup vs BenchmarkMatcherSetupRowBuild quantifies the
// tentpole win: with shared rows, setup touches only the O(n1) pattern
// adjacency bitsets; without them, it re-materialises the O(n2²)
// closure rows per request, which is what every request paid before
// rows were shareable.

func benchGraph(n, avgDeg int, seed int64) *graph.Graph {
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

func benchPattern(g *graph.Graph, size int, seed int64) *graph.Graph {
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

// benchFixture returns the shared (catalog-resident) state: data graph,
// pattern, closure, dense-tier index, and matrix.
func benchFixture() (g1, g2 *graph.Graph, mat simmatrix.Matrix, reach *closure.Reach, idx closure.Index) {
	g2 = benchGraph(400, 4, 1)
	g1 = benchPattern(g2, 10, 100)
	reach = closure.Compute(g2)
	idx = closure.NewRows(reach)
	mat = simmatrix.NewLabelEquality(g1, g2)
	return
}

// BenchmarkMatcherSetup is per-request matcher construction with the
// catalog-shared closure AND rows installed — the serving fast path.
func BenchmarkMatcherSetup(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		in.newMatcher(false, false).release()
	}
}

// BenchmarkMatcherSetupRowBuild is the same construction without shared
// rows: each request re-derives the forward/backward closure rows from
// the shared Reach index, reproducing the pre-rows cost every request
// used to pay.
func BenchmarkMatcherSetupRowBuild(b *testing.B) {
	g1, g2, mat, reach, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.newMatcher(false, false).release()
	}
}

// BenchmarkCompMaxCardServing is one full serving-shaped request:
// instance construction, matcher setup, and the compMaxCard run, all
// against shared catalog state.
func BenchmarkCompMaxCardServing(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		_ = compMaxCard(in)
	}
}

// BenchmarkCompMaxCardSparseTier is the same serving-shaped request
// under the candidate-sparse index tier — the representation large
// registered graphs get — quantifying the throughput cost of the O(k)
// memory footprint against the dense baseline above.
func BenchmarkCompMaxCardSparseTier(b *testing.B) {
	g1, g2, mat, reach, _ := benchFixture()
	sparse := closure.NewCompIndex(reach)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(sparse)
		_ = compMaxCard(in)
	}
}

// BenchmarkCompMaxSimServing is the similarity variant of the above
// (weight buckets, per-candidate weights, weight-greedy picks).
func BenchmarkCompMaxSimServing(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g1, g2, mat, 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		_ = compMaxSim(in)
	}
}

// BenchmarkGreedyMatchSteadyState measures the recursion alone on a
// warmed matcher: the free lists are primed by the first call, after
// which every round should run allocation-free (pinned exactly by
// TestGreedyMatchAllocationFree).
func BenchmarkGreedyMatchSteadyState(b *testing.B) {
	g1, g2, mat, reach, idx := benchFixture()
	in := NewInstance(g1, g2, mat, 0.9)
	in.SetReach(reach)
	in.SetIndex(idx)
	mx := in.newMatcher(false, false)
	h := mx.initialList()
	s, c := mx.greedyMatch(h)
	mx.putPairs(s)
	mx.putPairs(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, c := mx.greedyMatch(h)
		mx.putPairs(s)
		mx.putPairs(c)
	}
}

// compEntries is cmd/bench's four-algorithm rotation over the
// context-first entry points.
var compEntries = []struct {
	name string
	run  func(*Instance, context.Context) (Mapping, error)
}{
	{"maxcard", (*Instance).CompMaxCardCtx},
	{"maxcard11", (*Instance).CompMaxCard11Ctx},
	{"maxsim", (*Instance).CompMaxSimCtx},
	{"maxsim11", (*Instance).CompMaxSim11Ctx},
}

// pointLabelInstances is the shape of cmd/bench's point_label requests:
// patterns of 6–15 nodes carved from a 2 000-node, 64-label bow-tie
// graph, label equality at ξ = 0.9, with the catalog's shared closure
// and index installed. Each instance's candidate lists are
// built up front, so what the requests time is the matcher, not the
// label scan.
func pointLabelInstances(count int) []*Instance {
	g2 := syngen.GenerateLarge(syngen.LargeConfig{Nodes: 2000, AvgDeg: 4, Labels: 64, Seed: 11})
	reach := closure.Compute(g2)
	idx := closure.NewCompIndex(reach)
	ins := make([]*Instance, count)
	for i := range ins {
		g1 := syngen.CarvePattern(g2, 6+i%10, int64(i))
		in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.9)
		in.SetReach(reach)
		in.SetIndex(idx)
		in.candidates()
		ins[i] = in
	}
	return ins
}

// BenchmarkPointLabelServing is one point_label-shaped request per op:
// consecutive ops rotate through the four algorithms, and every fourth
// op moves to the next of 40 patterns.
func BenchmarkPointLabelServing(b *testing.B) {
	ins := pointLabelInstances(40)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compEntries[i%4].run(ins[(i/4)%len(ins)], ctx); err != nil {
			b.Fatal(err)
		}
	}
}
