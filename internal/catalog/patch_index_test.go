package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/trace"
)

// bowTie is a strongly connected core with IN nodes feeding it and OUT
// nodes fed by it; it returns the node ranges too.
func bowTie(rng *rand.Rand, ins, core, outs int) *graph.Graph {
	n := ins + core + outs
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < core; i++ {
		g.AddEdge(graph.NodeID(ins+i), graph.NodeID(ins+(i+1)%core))
	}
	for i := 0; i < ins; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(ins+rng.Intn(core)))
	}
	for i := 0; i < outs; i++ {
		g.AddEdge(graph.NodeID(ins+rng.Intn(core)), graph.NodeID(ins+core+i))
	}
	g.Finish()
	return g
}

// TestPatchedIndexIsExactAndExactlyCharged runs 1 000 patches of the
// serving mix (inserts into and out of the core, deletes, a node
// appended every tenth patch) against a dense-tier graph: the dense rows
// are patched every time — never rebuilt — stay bit-identical to a fresh
// expansion, and the catalog's resident bytes, which the LRU budget
// evicts by, end equal to those of a fresh build of the final graph
// (the row patch used to add the bytes of every row it replaced and
// never take any off).
func TestPatchedIndexIsExactAndExactlyCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ins, core, outs = 40, 120, 40
	c := New(0)
	if err := c.Register("g", bowTie(rng, ins, core, outs)); err != nil {
		t.Fatal(err)
	}
	if _, _, idx, err := c.GetWithIndex("g", 0); err != nil || idx.Tier() != closure.TierDense {
		t.Fatalf("index: %v, %v", idx, err)
	}
	var live [][2]graph.NodeID
	has := map[[2]graph.NodeID]bool{}
	n := ins + core + outs
	for k := 0; k < 1000; k++ {
		p := &graph.Patch{}
		pick := func(lo, count int) graph.NodeID { return graph.NodeID(lo + rng.Intn(count)) }
		switch {
		case k%3 == 2 && len(live) > 0:
			p.DelEdges, live = live[:1:1], live[1:]
			delete(has, p.DelEdges[0])
		case k%10 == 9:
			p.AddNodes = []graph.Node{{Label: "new"}}
			p.AddEdges = [][2]graph.NodeID{{pick(ins, core), graph.NodeID(n)}}
			n++
		case k%2 == 0:
			e := [2]graph.NodeID{pick(0, ins), pick(ins, core)}
			if g, _ := c.Get("g"); has[e] || g.HasEdge(e[0], e[1]) {
				continue
			}
			has[e] = true
			live = append(live, e)
			p.AddEdges = [][2]graph.NodeID{e}
		default:
			p.AddEdges = [][2]graph.NodeID{{pick(ins, core), pick(ins+core, outs)}}
		}
		if _, err := c.Apply("g", p); err != nil {
			t.Fatalf("patch %d: %v", k, err)
		}
		if k%50 != 0 {
			continue
		}
		g, reach, idx, err := c.GetWithIndex("g", 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, fresh := idx.(*closure.Rows), closure.NewRows(closure.Compute(g))
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if !rows.Fwd(id).Equal(fresh.Fwd(id)) || !rows.Bwd(id).Equal(fresh.Bwd(id)) {
				t.Fatalf("patch %d: patched rows of node %d differ from a fresh expansion", k, v)
			}
		}
		if reach.NumNodes() != g.NumNodes() {
			t.Fatalf("patch %d: closure covers %d nodes, graph has %d", k, reach.NumNodes(), g.NumNodes())
		}
	}
	st := c.Stats()
	if st.PatchIndexRebuilds != 0 || st.PatchesRebuild != 0 {
		t.Fatalf("%d index rebuilds, %d closure rebuilds over the run, want none", st.PatchIndexRebuilds, st.PatchesRebuild)
	}
	g, _ := c.Get("g")
	fresh := New(0)
	if err := fresh.Register("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fresh.GetWithIndex("g", 0); err != nil {
		t.Fatal(err)
	}
	rowBytes := int64(8 * ((g.NumNodes() + 63) / 64))
	if got, want := st.ResidentBytes, fresh.Stats().ResidentBytes; got < want-rowBytes || got > want+rowBytes {
		t.Fatalf("resident bytes after 1 000 patches %d, a fresh build of the same graph %d", got, want)
	}
}

// TestPatchIndexOutcomeIsVisible: the catalog.commit span says what a
// patch did to the matcher index — patched, rebuilt (and why), or left
// to the next request — and patch_index_rebuilds counts the rebuilds.
func TestPatchIndexOutcomeIsVisible(t *testing.T) {
	rec := trace.NewRecorder(8, time.Hour)
	commitAttrs := func(c *Catalog, id string, p *graph.Patch) map[string]any {
		t.Helper()
		root := rec.StartTrace(trace.DeriveTraceID(id), "PATCH", id)
		if _, err := c.ApplyCtx(trace.ContextWithSpan(context.Background(), root), "g", p); err != nil {
			t.Fatal(err)
		}
		root.End()
		td, ok := rec.Get(id)
		if !ok {
			t.Fatalf("trace %s not recorded", id)
		}
		for _, sd := range td.Spans {
			if sd.Name == "catalog.commit" {
				attrs := map[string]any{}
				for _, a := range sd.Attrs {
					attrs[a.Key] = a.Value()
				}
				return attrs
			}
		}
		t.Fatalf("trace %s has no catalog.commit span", id)
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	g := bowTie(rng, 10, 30, 10)
	// A dense budget the graph fits with three nodes to spare.
	reach := closure.Compute(g)
	grown, _ := g.ApplyPatch(&graph.Patch{AddNodes: make([]graph.Node, 3)})
	budget := closure.ProjectedRowsBytes(closure.Compute(grown))
	if closure.ProjectedRowsBytes(reach) >= budget {
		t.Fatal("test graph does not grow the projection")
	}
	c := New(0, WithDenseMaxBytes(budget))
	if err := c.Register("g", g); err != nil {
		t.Fatal(err)
	}

	if a := commitAttrs(c, "lazy", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 12}}}); a["index"] != "lazy" {
		t.Fatalf("no index built yet: commit span says %v", a)
	}
	if _, _, idx, err := c.GetWithIndex("g", 0); err != nil || idx.Tier() != closure.TierDense {
		t.Fatalf("index: %v, %v", idx, err)
	}
	if a := commitAttrs(c, "patched", &graph.Patch{AddNodes: make([]graph.Node, 3), AddEdges: [][2]graph.NodeID{{11, 50}}}); a["index"] != "patched" || a["index_reason"] != nil {
		t.Fatalf("append inside the dense budget: commit span says %v", a)
	}
	if n := c.Stats().PatchIndexRebuilds; n != 0 {
		t.Fatalf("patch_index_rebuilds = %d before the graph outgrew the budget", n)
	}
	a := commitAttrs(c, "outgrown", &graph.Patch{AddNodes: make([]graph.Node, 1)})
	if a["index"] != "rebuilt" || a["index_reason"] != "outgrew_dense" {
		t.Fatalf("append past the dense budget: commit span says %v", a)
	}
	if _, _, idx, err := c.GetWithIndex("g", 0); err != nil || idx.Tier() != closure.TierSparse {
		t.Fatalf("index after outgrowing the dense budget: %v, %v", idx, err)
	}
	if n := c.Stats().PatchIndexRebuilds; n != 1 {
		t.Fatalf("patch_index_rebuilds = %d, want 1", n)
	}
	if a := commitAttrs(c, "sparse", &graph.Patch{AddEdges: [][2]graph.NodeID{{1, 13}}}); a["index"] != "patched" {
		t.Fatalf("sparse-tier rewrap: commit span says %v", a)
	}
	// 49 → 0 closes a cycle through the core: the closure delta falls
	// back, and the index goes with the closure.
	if a := commitAttrs(c, "merge", &graph.Patch{AddEdges: [][2]graph.NodeID{{49, 0}}}); a["index"] != "lazy" || a["incremental"] != false {
		t.Fatalf("SCC merge: commit span says %v", a)
	}
}
