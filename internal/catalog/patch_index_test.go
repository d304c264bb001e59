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
// appended every tenth patch): the closure is patched every time —
// never rebuilt — the index the catalog hands out wraps that closure
// and answers exactly what a fresh closure of the patched graph does,
// and the catalog's resident bytes, which the LRU budget evicts by, end
// equal to those of a fresh build of the final graph.
func TestPatchedIndexIsExactAndExactlyCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ins, core, outs = 40, 120, 40
	c := New(0)
	if err := c.Register("g", bowTie(rng, ins, core, outs)); err != nil {
		t.Fatal(err)
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
		if ci, ok := idx.(*closure.CompIndex); !ok || ci.Reach() != reach {
			t.Fatalf("patch %d: index %T does not wrap the resolved closure", k, idx)
		}
		if reach.NumNodes() != g.NumNodes() {
			t.Fatalf("patch %d: closure covers %d nodes, graph has %d", k, reach.NumNodes(), g.NumNodes())
		}
		fresh := closure.Compute(g)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				uu, vv := graph.NodeID(u), graph.NodeID(v)
				if idx.Reachable(uu, vv) != fresh.Reachable(uu, vv) {
					t.Fatalf("patch %d: patched index disagrees with a fresh closure at (%d,%d)", k, u, v)
				}
			}
		}
	}
	st := c.Stats()
	if st.PatchesRebuild != 0 {
		t.Fatalf("%d closure rebuilds over the run, want none", st.PatchesRebuild)
	}
	g, _ := c.Get("g")
	fresh := New(0)
	if err := fresh.Register("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if got, want := st.ResidentBytes, fresh.Stats().ResidentBytes; got != want {
		t.Fatalf("resident bytes after 1 000 patches %d, a fresh build of the same graph %d", got, want)
	}
}

// TestPatchIndexOutcomeIsVisible: the catalog.commit span says what a
// patch did to the closure — patched in place (with the delta cone's
// size) or dropped for a rebuild — and the matcher index follows: after
// either, the index the catalog hands out wraps the closure it hands
// out.
func TestPatchIndexOutcomeIsVisible(t *testing.T) {
	rec := trace.NewRecorder(8, time.Hour)
	c := New(0)
	commit := func(id string, p *graph.Patch) map[string]any {
		t.Helper()
		root := rec.StartTrace(trace.DeriveTraceID(id), "PATCH", id)
		if _, err := c.ApplyCtx(trace.ContextWithSpan(context.Background(), root), "g", p); err != nil {
			t.Fatal(err)
		}
		root.End()
		_, reach, idx, err := c.GetWithIndex("g", 0)
		if err != nil {
			t.Fatal(err)
		}
		if ci, ok := idx.(*closure.CompIndex); !ok || ci.Reach() != reach {
			t.Fatalf("%s: index %T does not wrap the resolved closure", id, idx)
		}
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
	if err := c.Register("g", bowTie(rng, 10, 30, 10)); err != nil {
		t.Fatal(err)
	}
	if a := commit("edge", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 12}}}); a["incremental"] != true || a["cone_comps"] == nil {
		t.Fatalf("edge insert: commit span says %v", a)
	}
	if a := commit("append", &graph.Patch{AddNodes: make([]graph.Node, 3), AddEdges: [][2]graph.NodeID{{11, 50}}}); a["incremental"] != true {
		t.Fatalf("append: commit span says %v", a)
	}
	// 49 → 0 closes a cycle through the core: the closure delta falls
	// back, and the index goes with the closure.
	if a := commit("merge", &graph.Patch{AddEdges: [][2]graph.NodeID{{49, 0}}}); a["incremental"] != false || a["cone_comps"] != nil {
		t.Fatalf("SCC merge: commit span says %v", a)
	}
}
