//go:build !race

package catalog

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"graphmatch/internal/graph"
	"graphmatch/internal/syngen"
)

// TestPatchStormIncrementalBeatsRebuild is the serving-scale gate of
// incremental closure maintenance: one 40-patch tendril storm on a
// 20 000-node bow-tie goes to a catalog that patches its closure by
// delta on every patch and to one that rebuilds it (deltaBudget = -1).
// The closures must agree on sampled Reachable pairs, and the
// incremental storm must finish first. It times the storms, hence the
// build tag.
func TestPatchStormIncrementalBeatsRebuild(t *testing.T) {
	g := syngen.GenerateLarge(syngen.LargeConfig{Nodes: 20000, AvgDeg: 5, CoreFraction: 0.9, Seed: 42})
	storm, touched := tendrilStorm(g, 40)
	ctx := context.Background()
	inc, reb := New(8), New(8)
	reb.deltaBudget = -1
	var took [2]time.Duration
	var res [2]Resolved
	for i, c := range []*Catalog{inc, reb} {
		if err := c.RegisterCtx(ctx, "web", g.Clone()); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for j, p := range storm {
			if _, err := c.ApplyCtx(ctx, "web", p); err != nil {
				t.Fatalf("storm patch %d: %v", j, err)
			}
		}
		took[i] = time.Since(start)
		var err error
		if res[i], err = c.Resolve(ctx, "web", 0, NeedReach); err != nil {
			t.Fatal(err)
		}
	}
	if got, reb := inc.Stats().PatchesIncremental, reb.Stats().PatchesIncremental; got != uint64(len(storm)) || reb != 0 {
		t.Fatalf("delta path taken %d of %d times by the incremental catalog, %d by the rebuild one", got, len(storm), reb)
	}
	if a, b := res[0].Graph, res[1].Graph; a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graphs diverged: incremental %d/%d vs rebuild %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	// Half the pairs start at a node the storm touched, where a stale
	// closure would show.
	rng := rand.New(rand.NewSource(99))
	n := res[0].Graph.NumNodes()
	for i := 0; i < 4000; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if i%2 == 0 {
			u = touched[rng.Intn(len(touched))]
		}
		if a, b := res[0].Reach.Reachable(u, v), res[1].Reach.Reachable(u, v); a != b {
			t.Fatalf("closures diverged: Reachable(%d, %d) = %v incremental, %v rebuilt", u, v, a, b)
		}
	}
	t.Logf("%d patches: incremental %v, rebuild %v (%.1f×)", len(storm), took[0], took[1], float64(took[1])/float64(took[0]))
	if took[0] >= took[1] {
		t.Fatalf("incremental storm took %v, rebuild storm %v", took[0], took[1])
	}
}

// tendrilStorm composes n patches of a syngen bow-tie, and lists their
// edges' endpoints: IN→core inserts, deletes of the oldest of those,
// core→OUT inserts, and every tenth a new page linked from the core.
// IN nodes receive no edges and OUT nodes emit none, so no patch merges
// or splits an SCC — the mutation a site sees most.
func tendrilStorm(g *graph.Graph, n int) (storm []*graph.Patch, touched []graph.NodeID) {
	var ins, outs, cores []graph.NodeID
	for v := range graph.NodeID(g.NumNodes()) {
		switch {
		case g.InDegree(v) == 0:
			ins = append(ins, v)
		case g.OutDegree(v) == 0:
			outs = append(outs, v)
		default:
			cores = append(cores, v)
		}
	}
	rng := rand.New(rand.NewSource(7))
	pick := func(ids []graph.NodeID) graph.NodeID { return ids[rng.Intn(len(ids))] }
	nodes := graph.NodeID(g.NumNodes())
	var added [][2]graph.NodeID // IN→core inserts not yet deleted, oldest first
	for i := 0; i < n; i++ {
		p := &graph.Patch{}
		switch {
		case i%3 == 2 && len(added) > 0:
			p.DelEdges, added = added[:1:1], added[1:]
		case i%10 == 9:
			p.AddNodes = []graph.Node{{Label: "new", Weight: 1, Content: "page added by the storm"}}
			p.AddEdges = [][2]graph.NodeID{{pick(cores), nodes}}
			nodes++
		case i%2 == 0:
			p.AddEdges = [][2]graph.NodeID{{pick(ins), pick(cores)}}
			added = append(added, p.AddEdges[0])
		default:
			p.AddEdges = [][2]graph.NodeID{{pick(cores), pick(outs)}}
		}
		for _, e := range append(p.AddEdges, p.DelEdges...) {
			touched = append(touched, e[0], e[1])
		}
		storm = append(storm, p)
	}
	return storm, touched
}
