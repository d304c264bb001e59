package engine

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/syngen"
)

// mutateMix generates, for one bow-tie graph, the patch mix of the
// benchmark's mutate_read workload: IN→core inserts, core→OUT inserts
// (the wide closure cones), deletes of its own earlier IN→core inserts
// and — when appends is set — a new node hung off the core every tenth
// patch. No patch of the mix merges or splits an SCC.
type mutateMix struct {
	rng              *rand.Rand
	base             *graph.Graph
	ins, outs, cores []graph.NodeID
	nodes, k         int
	live             [][2]graph.NodeID
	has              map[[2]graph.NodeID]bool
}

func newMutateMix(g *graph.Graph, seed int64) *mutateMix {
	m := &mutateMix{rng: rand.New(rand.NewSource(seed)), base: g, nodes: g.NumNodes(), has: map[[2]graph.NodeID]bool{}}
	for v := 0; v < g.NumNodes(); v++ {
		switch id := graph.NodeID(v); {
		case g.InDegree(id) == 0:
			m.ins = append(m.ins, id)
		case g.OutDegree(id) == 0:
			m.outs = append(m.outs, id)
		default:
			m.cores = append(m.cores, id)
		}
	}
	return m
}

func (m *mutateMix) next(appends bool) *graph.Patch {
	fresh := func(from, to []graph.NodeID) [2]graph.NodeID {
		for {
			e := [2]graph.NodeID{from[m.rng.Intn(len(from))], to[m.rng.Intn(len(to))]}
			if !m.has[e] && !m.base.HasEdge(e[0], e[1]) {
				m.has[e] = true
				return e
			}
		}
	}
	k := m.k
	m.k++
	switch {
	case k%3 == 2 && len(m.live) > 0:
		e := m.live[0]
		m.live = m.live[1:]
		delete(m.has, e)
		return &graph.Patch{DelEdges: [][2]graph.NodeID{e}}
	case appends && k%10 == 9:
		nid := graph.NodeID(m.nodes)
		m.nodes++
		return &graph.Patch{
			AddNodes: []graph.Node{{Label: "new", Weight: 1, Content: fmt.Sprintf("page appended by patch %d", k)}},
			AddEdges: [][2]graph.NodeID{{m.cores[m.rng.Intn(len(m.cores))], nid}},
		}
	case k%2 == 0:
		e := fresh(m.ins, m.cores)
		m.live = append(m.live, e)
		return &graph.Patch{AddEdges: [][2]graph.NodeID{e}}
	default:
		return &graph.Patch{AddEdges: [][2]graph.NodeID{fresh(m.cores, m.outs)}}
	}
}

func bowTieGraph(nodes int, seed int64) *graph.Graph {
	return syngen.GenerateLarge(syngen.LargeConfig{Nodes: nodes, AvgDeg: 4, Labels: 64, Seed: seed})
}

// heapAfterGC is the live heap: two cycles, so that what the first
// one's finalizers released is gone too.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func mustMatch(t *testing.T, e *Engine, name string, pattern *graph.Graph) Result {
	t.Helper()
	res := e.Match(context.Background(), Request{Pattern: pattern, GraphName: name, Algo: MaxCard, Xi: 0.9})
	if res.Err != nil {
		t.Fatalf("match on %s: %v", name, res.Err)
	}
	return res
}

// TestPatchesRetainNoGraphVersion is the retention gate of ROADMAP
// item 3: 2 000 single-edge patches on a 2 000-node graph, no search in
// between, leave no superseded graph version reachable — an early
// version is finalized and the live heap has not grown by the ≈ 350 MB
// the search index's former delta queue pinned — whether or not a
// search built the graph's summary before the run.
func TestPatchesRetainNoGraphVersion(t *testing.T) {
	for _, searched := range []bool{false, true} {
		t.Run(fmt.Sprintf("searched=%v", searched), func(t *testing.T) {
			e := New(Options{Workers: 1})
			defer e.Close()
			g := bowTieGraph(2000, 7)
			if err := e.Register(context.Background(), "g", g); err != nil {
				t.Fatal(err)
			}
			pattern := syngen.CarvePattern(g, 8, 1)
			mustMatch(t, e, "g", pattern) // builds the dense rows the patches then maintain
			if searched {
				if res := e.Search(context.Background(), SearchRequest{Pattern: pattern, Algo: MaxCard, Xi: 0.9, K: 1}); res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			mix := newMutateMix(g, 1)
			g = nil
			collected := make(chan struct{})
			before := heapAfterGC()
			for i := 0; i < 2000; i++ {
				ng, err := e.ApplyPatch(context.Background(), "g", mix.next(false))
				if err != nil {
					t.Fatalf("patch %d: %v", i, err)
				}
				if i == 10 {
					runtime.SetFinalizer(ng, func(*graph.Graph) { close(collected) })
				}
			}
			grew := heapAfterGC() - before
			for tries := 0; ; tries++ {
				select {
				case <-collected:
				case <-time.After(20 * time.Millisecond):
					if tries == 100 {
						t.Fatal("the version patch 10 produced is still reachable 1 990 patches later")
					}
					runtime.GC()
					continue
				}
				break
			}
			if grew >= 4<<20 {
				t.Fatalf("live heap grew %.1f MB over 2 000 single-edge patches, want < 4 MB", float64(grew)/(1<<20))
			}
			st := e.Catalog().Stats()
			if st.PatchesRebuild != 0 {
				t.Fatalf("patches fell back: %d closure rebuilds", st.PatchesRebuild)
			}
		})
	}
}

// TestMatchersOnSupersededVersions (run under -race): matchers keep
// resolving and reading graph versions while patches — every third one
// appending a node into the node slots versions share — commit behind
// them. Every answer must be the answer a fresh engine gives on one of
// the versions the graph went through.
func TestMatchersOnSupersededVersions(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	g := bowTieGraph(300, 3)
	if err := e.Register(context.Background(), "g", g); err != nil {
		t.Fatal(err)
	}
	pattern := syngen.CarvePattern(g, 6, 2)
	mix := newMutateMix(g, 4)
	versions := []*graph.Graph{g}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []Result
	var completed atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := e.Match(context.Background(), Request{Pattern: pattern, GraphName: "g", Algo: MaxCard, Xi: 0.9})
				mu.Lock()
				got = append(got, res)
				mu.Unlock()
				completed.Add(1)
			}
		}()
	}
	// Each patch waits until a match has completed since the one before
	// it, so the matchers run between every two commits even where the
	// scheduler would let this loop finish first (with GOMAXPROCS=1 it is
	// not preempted for 10 ms, longer than the 90 patches take).
	var seen int64
	for i := 0; i < 90; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for completed.Load() <= seen {
			if time.Now().After(deadline) {
				t.Fatalf("no match completed before patch %d", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
		seen = completed.Load()
		p := mix.next(false)
		if i%3 == 0 {
			nid := graph.NodeID(versions[len(versions)-1].NumNodes())
			p.AddNodes = []graph.Node{{Label: g.Label(graph.NodeID(i)), Content: "appended"}}
			p.AddEdges = append(p.AddEdges, [2]graph.NodeID{mix.cores[i%len(mix.cores)], nid})
		}
		ng, err := e.ApplyPatch(context.Background(), "g", p)
		if err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		versions = append(versions, ng)
	}
	close(stop)
	wg.Wait()

	want := make([]Result, len(versions))
	for i, v := range versions {
		fresh := New(Options{Workers: 1})
		if err := fresh.Register(context.Background(), "g", v.Clone()); err != nil {
			t.Fatal(err)
		}
		want[i] = mustMatch(t, fresh, "g", pattern)
		fresh.Close()
	}
	if len(got) == 0 {
		t.Fatal("no match completed while the patches ran")
	}
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("match %d: %v", i, res.Err)
		}
		ok := false
		for _, w := range want {
			if mappingEqual(res.Mapping, w.Mapping) && res.QualCard == w.QualCard && res.QualSim == w.QualSim {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("match %d answered %v (qualCard %v), which no version of the graph gives", i, res.Mapping, res.QualCard)
		}
	}
}

// vmHWM reads the process's peak resident set from /proc, in bytes; ok
// is false where /proc does not provide it.
func vmHWM() (bytes int64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), "VmHWM:"); found {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err == nil
		}
	}
	return 0, false
}

// TestPatchSoak is ROADMAP item 3's soak: 50 000 patches of the
// mutate_read mix — node appends included — from two writers through an
// engine with a store, one commit per patch, a match now and then.
// The mix appends 5 000 nodes, and their rows and closure bits are real
// memory, so what must stay flat is the heap the catalog's contents do
// not explain: live heap minus the live heap of a fresh engine holding
// copies of the same graphs. Between the first tenth of the run and the
// last it may move by 2 MB, and the process's peak RSS stays under
// 128 MB throughout (the parent grew ≈ 270 KB per patch: 13 GB).
func TestPatchSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("50 000 fsynced patches")
	}
	const (
		graphs  = 8
		patches = 50000
		writers = 2
	)
	e, err := Open(Options{Workers: 2, StorePath: t.TempDir(), SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	names := make([]string, graphs)
	mixes := make([]*mutateMix, graphs)
	patterns := make([]*graph.Graph, graphs)
	for i := range names {
		names[i] = fmt.Sprintf("g%02d", i)
		g := bowTieGraph(2000, int64(100+i))
		if err := e.Register(context.Background(), names[i], g); err != nil {
			t.Fatal(err)
		}
		mixes[i] = newMutateMix(g, int64(i))
		patterns[i] = syngen.CarvePattern(g, 8, int64(i))
		mustMatch(t, e, names[i], patterns[i])
	}

	// unexplained is the live heap beyond what a fresh engine needs for
	// the same catalog, measured by building that engine next to e.
	unexplained := func() int64 {
		// Behind any background snapshot still serialising the catalog.
		if _, err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
		soaked := heapAfterGC()
		fresh := New(Options{Workers: 1})
		defer fresh.Close()
		for i, name := range names {
			res, err := e.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
			g := res.Graph
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Register(context.Background(), name, g.Clone()); err != nil {
				t.Fatal(err)
			}
			mustMatch(t, fresh, name, patterns[i])
		}
		return soaked - (heapAfterGC() - soaked)
	}

	// run commits the next n patches: each writer owns every other graph
	// and walks its own round-robin.
	run := func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n/writers; i++ {
					gi := w + writers*(i%(graphs/writers))
					if _, err := e.ApplyPatch(context.Background(), names[gi], mixes[gi].next(true)); err != nil {
						t.Errorf("patch on %s: %v", names[gi], err)
						return
					}
					if i%97 == 0 {
						if res := e.Match(context.Background(), Request{Pattern: patterns[gi], GraphName: names[gi], Algo: MaxCard, Xi: 0.9}); res.Err != nil {
							t.Errorf("match on %s: %v", names[gi], res.Err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	run(patches / 10)
	first := unexplained()
	run(patches * 9 / 10)
	last := unexplained()
	runtime.KeepAlive(mixes) // the generators (and the base graphs they hold) count in both readings
	t.Logf("unexplained heap: %.2f MB after %d patches, %.2f MB after %d", float64(first)/(1<<20), patches/10, float64(last)/(1<<20), patches)
	if d := last - first; d > 2<<20 || d < -(2<<20) {
		t.Fatalf("heap the catalog does not explain moved %.2f MB between the first and the last tenth of the soak, want within 2 MB", float64(d)/(1<<20))
	}
	if hwm, ok := vmHWM(); ok {
		t.Logf("VmHWM %.1f MB", float64(hwm)/(1<<20))
		if hwm >= 128<<20 {
			t.Fatalf("peak RSS %.1f MB, want < 128 MB", float64(hwm)/(1<<20))
		}
	}
	st := e.Catalog().Stats()
	if st.PatchesRebuild != 0 {
		t.Fatalf("patches fell back: %d closure rebuilds", st.PatchesRebuild)
	}
	// What the LRU is charged for a patched graph is what a fresh build
	// of it would be charged.
	fresh := New(Options{Workers: 1})
	defer fresh.Close()
	for i, name := range names {
		res, _ := e.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		g := res.Graph
		if err := fresh.Register(context.Background(), name, g.Clone()); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, fresh, name, patterns[i])
	}
	if got, want := st.ResidentBytes, fresh.Catalog().Stats().ResidentBytes; got != want {
		t.Fatalf("resident bytes after the soak %d, a fresh build of the same graphs %d", got, want)
	}
	if !reflect.DeepEqual(e.Catalog().Names(), fresh.Catalog().Names()) {
		t.Fatal("catalogs differ")
	}
}

// BenchmarkPatchMix is one committed patch of the mutate_read mix on a
// 2 000-node graph whose dense rows are built: graph version, closure
// delta, row patch, catalog swap — everything but the WAL.
func BenchmarkPatchMix(b *testing.B) {
	e := New(Options{Workers: 1})
	defer e.Close()
	g := bowTieGraph(2000, 7)
	if err := e.Register(context.Background(), "g", g); err != nil {
		b.Fatal(err)
	}
	if res := e.Match(context.Background(), Request{Pattern: syngen.CarvePattern(g, 8, 1), GraphName: "g", Algo: MaxCard, Xi: 0.9}); res.Err != nil {
		b.Fatal(res.Err)
	}
	mix := newMutateMix(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyPatch(context.Background(), "g", mix.next(true)); err != nil {
			b.Fatal(err)
		}
	}
}
