package closure

import (
	"math/rand"
	"testing"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// tierIndexes builds both tiers over the same Reach.
func tierIndexes(r *Reach) []Index {
	return []Index{NewRows(r), NewCompIndex(r)}
}

func TestIndexTiersAgreeOnQueries(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomRowsGraph(25+int(seed), 60+4*int(seed), seed)
		for _, r := range []*Reach{Compute(g), ComputeBFS(g), ComputeBounded(g, 2)} {
			rows, comp := NewRows(r), NewCompIndex(r)
			n := r.NumNodes()
			for u := 0; u < n; u++ {
				uu := graph.NodeID(u)
				for v := 0; v < n; v++ {
					vv := graph.NodeID(v)
					want := r.Reachable(uu, vv)
					if rows.Reachable(uu, vv) != want || comp.Reachable(uu, vv) != want {
						t.Fatalf("seed %d: Reachable(%d,%d) disagrees with Reach", seed, u, v)
					}
				}
			}
		}
	}
}

func TestIndexTiersAgreeOnSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for seed := int64(0); seed < 10; seed++ {
		g := randomRowsGraph(30, 80, seed)
		r := Compute(g)
		rows, comp := NewRows(r), NewCompIndex(r)
		n := r.NumNodes()
		for trial := 0; trial < 40; trial++ {
			cand := bitset.New(n)
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					cand.Add(v)
				}
			}
			u := graph.NodeID(rng.Intn(n))
			needBwd, needFwd := rng.Intn(2) == 0, rng.Intn(2) == 0
			if !needBwd && !needFwd {
				needFwd = true
			}
			// Pre-dirty the outputs: Split must fully overwrite them.
			dk, dm := bitset.New(n), bitset.New(n)
			dk.Fill()
			dm.Fill()
			sk, sm := bitset.New(n), bitset.New(n)
			sk.Fill()
			sm.Fill()
			k1, m1 := rows.Split(cand, u, needBwd, needFwd, dk, dm)
			k2, m2 := comp.Split(cand, u, needBwd, needFwd, sk, sm)
			if k1 != k2 || m1 != m2 {
				t.Fatalf("seed %d: Split flags disagree: dense (%v,%v) sparse (%v,%v)", seed, k1, m1, k2, m2)
			}
			if !dk.Equal(sk) || !dm.Equal(sm) {
				t.Fatalf("seed %d u=%d bwd=%v fwd=%v: Split sets disagree", seed, u, needBwd, needFwd)
			}
			// Cross-check against the point queries.
			for w := cand.Next(0); w >= 0; w = cand.Next(w + 1) {
				ww := graph.NodeID(w)
				want := (!needBwd || r.Reachable(ww, u)) && (!needFwd || r.Reachable(u, ww))
				if dk.Contains(w) != want || dm.Contains(w) == want {
					t.Fatalf("seed %d: Split misplaced candidate %d", seed, w)
				}
			}
		}
	}
}

func TestCompIndexBytesSmall(t *testing.T) {
	// The whole point of probing the condensed closure: CompIndex holds
	// nothing beyond its Reach (one wrapper allocation), where the dense
	// rows add Rows.Bytes on top of it.
	g := randomRowsGraph(512, 1500, 5)
	r := Compute(g)
	if ci := NewCompIndex(r); ci.Reach() != r || ci.NumNodes() != r.NumNodes() {
		t.Fatalf("CompIndex does not read through its Reach")
	}
	if allocs := testing.AllocsPerRun(20, func() { NewCompIndex(r) }); allocs > 1 {
		t.Fatalf("NewCompIndex allocates %.0f times, want at most the wrapper", allocs)
	}
	if NewRows(r).Bytes() <= 0 {
		t.Fatalf("dense rows report no bytes")
	}
}

func TestProjectedRowsBytes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomRowsGraph(40+int(seed), 100, seed)
		for _, r := range []*Reach{Compute(g), ComputeBFS(g)} {
			if got, want := ProjectedRowsBytes(r), NewRows(r).Bytes(); got != want {
				t.Fatalf("seed %d: ProjectedRowsBytes = %d, NewRows allocated %d", seed, got, want)
			}
		}
	}
}

func TestBuildIndexPolicy(t *testing.T) {
	g := randomRowsGraph(60, 150, 3)
	r := Compute(g)
	// A tiny budget forces CompIndex, a huge one allows the dense rows.
	if _, ok := BuildIndex(r, PolicyAuto, 1).(*CompIndex); !ok {
		t.Fatalf("auto with 1-byte budget did not build CompIndex")
	}
	if _, ok := BuildIndex(r, PolicyAuto, 1<<30).(*Rows); !ok {
		t.Fatalf("auto with 1GiB budget did not build Rows")
	}
	if _, ok := BuildIndex(r, PolicyAuto, DefaultDenseMaxBytes).(*Rows); !ok {
		t.Fatalf("auto on a 60-node graph under the default budget did not build Rows")
	}
}
