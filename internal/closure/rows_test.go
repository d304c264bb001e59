package closure

import (
	"math/rand"
	"testing"

	"graphmatch/internal/graph"
)

func randomRowsGraph(n, edges int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("x")
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

// checkRows verifies both directions of a Rows expansion against the
// Reach index it derives from.
func checkRows(t *testing.T, r *Reach, rw *Rows) {
	t.Helper()
	n := r.NumNodes()
	if rw.NumNodes() != n {
		t.Fatalf("NumNodes = %d, want %d", rw.NumNodes(), n)
	}
	for u := 0; u < n; u++ {
		uu := graph.NodeID(u)
		fwd, bwd := rw.Fwd(uu), rw.Bwd(uu)
		if fwd.Len() != n || bwd.Len() != n {
			t.Fatalf("row capacity %d/%d, want %d", fwd.Len(), bwd.Len(), n)
		}
		for v := 0; v < n; v++ {
			vv := graph.NodeID(v)
			if got, want := fwd.Contains(v), r.Reachable(uu, vv); got != want {
				t.Fatalf("Fwd(%d).Contains(%d) = %v, want %v", u, v, got, want)
			}
			if got, want := bwd.Contains(v), r.Reachable(vv, uu); got != want {
				t.Fatalf("Bwd(%d).Contains(%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestRowsMatchReach(t *testing.T) {
	// Compute produces SCC components (the shared-row expansion path);
	// ComputeBounded produces singleton components in ID order (the
	// zero-copy identity path), at full depth and at a bound. All three
	// must expand to the same relation their Reach encodes.
	for seed := int64(0); seed < 12; seed++ {
		g := randomRowsGraph(20+int(seed), 50+3*int(seed), seed)
		for _, tc := range []struct {
			name string
			r    *Reach
		}{
			{"scc", Compute(g)},
			{"bounded-full", ComputeBounded(g, g.NumNodes())},
			{"bounded2", ComputeBounded(g, 2)},
		} {
			checkRows(t, tc.r, NewRows(tc.r))
		}
	}
}

func TestRowsMatchReachableSet(t *testing.T) {
	g := randomRowsGraph(40, 120, 99)
	r := Compute(g)
	rw := NewRows(r)
	for u := 0; u < g.NumNodes(); u++ {
		if !rw.Fwd(graph.NodeID(u)).Equal(r.ReachableSet(graph.NodeID(u))) {
			t.Fatalf("Fwd(%d) differs from ReachableSet", u)
		}
	}
}

func TestRowsSharedWithinSCC(t *testing.T) {
	// A 3-cycle is one SCC: its members must alias one forward row and
	// one backward row rather than holding three copies each.
	g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	rw := NewRows(Compute(g))
	if rw.Fwd(0) != rw.Fwd(1) || rw.Fwd(1) != rw.Fwd(2) {
		t.Error("SCC members should share one forward row")
	}
	if rw.Bwd(0) != rw.Bwd(1) || rw.Bwd(1) != rw.Bwd(2) {
		t.Error("SCC members should share one backward row")
	}
	for v := 0; v < 3; v++ {
		if got := rw.Fwd(graph.NodeID(v)).Count(); got != 3 {
			t.Errorf("Fwd(%d).Count = %d, want 3 (cycle closure is complete)", v, got)
		}
	}
}

func TestRowsBytes(t *testing.T) {
	g := randomRowsGraph(64, 200, 7)
	r := Compute(g)
	rw := NewRows(r)
	if rw.Bytes() <= 0 {
		t.Fatalf("Rows.Bytes = %d, want > 0", rw.Bytes())
	}
	if r.Bytes() <= 0 {
		t.Fatalf("Reach.Bytes = %d, want > 0", r.Bytes())
	}
}

func TestRowsEmptyGraph(t *testing.T) {
	g := graph.New(0)
	g.Finish()
	rw := NewRows(Compute(g))
	if rw.NumNodes() != 0 {
		t.Fatalf("NumNodes = %d, want 0", rw.NumNodes())
	}
}
