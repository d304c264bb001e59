package catalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

func chain(n int) *graph.Graph {
	labels := make([]string, n)
	edges := make([][2]int, 0, n-1)
	for i := range labels {
		labels[i] = fmt.Sprintf("n%d", i)
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	return graph.FromEdgeList(labels, edges)
}

func TestRegisterAndGet(t *testing.T) {
	c := New(4)
	g := chain(5)
	if err := c.Register("web", g); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("web")
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("Get returned a different graph")
	}
	if err := c.Register("web", chain(3)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register: err = %v, want ErrDuplicate", err)
	}
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: err = %v, want ErrNotFound", err)
	}
	if names := c.Names(); len(names) != 1 || names[0] != "web" {
		t.Fatalf("Names = %v", names)
	}
}

func TestRegisterPrecomputesClosure(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(6)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.ResidentClosures != 1 {
		t.Fatalf("after register: %+v, want 1 miss and 1 resident closure", s)
	}
	r, err := c.Reach("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reachable(0, 5) || r.Reachable(5, 0) {
		t.Fatalf("closure semantics wrong on a 6-chain")
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("post-register Reach should hit, stats %+v", s)
	}
}

func TestReachSharedPointer(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(8)); err != nil {
		t.Fatal(err)
	}
	r1, _ := c.Reach("g", 0)
	r2, _ := c.Reach("g", 0)
	if r1 != r2 {
		t.Fatalf("repeated Reach returned distinct indexes — closure not shared")
	}
	// A bounded index is a different cache slot with different semantics.
	b, err := c.Reach("g", 1)
	if err != nil {
		t.Fatal(err)
	}
	if b == r1 {
		t.Fatalf("bounded and unbounded indexes share a slot")
	}
	if b.Reachable(0, 2) {
		t.Fatalf("1-bounded index reports a 2-hop path")
	}
	if !r1.Reachable(0, 2) {
		t.Fatalf("unbounded index misses a 2-hop path")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.Register(name, chain(4)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.ResidentClosures != 2 {
		t.Fatalf("resident = %d, want 2", s.ResidentClosures)
	}
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// "a" was evicted; touching it is a miss that rebuilds and evicts "b".
	if _, err := c.Reach("a", 0); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("after rebuild: %+v, want 4 misses and 2 evictions", s)
	}
	// "c" is still resident: a hit.
	hits := s.Hits
	if _, err := c.Reach("c", 0); err != nil {
		t.Fatal(err)
	}
	if s = c.Stats(); s.Hits != hits+1 {
		t.Fatalf("touching resident closure was not a hit: %+v", s)
	}
}

func TestRemove(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reach("g", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Graphs != 0 || s.ResidentClosures != 0 {
		t.Fatalf("after remove: %+v", s)
	}
	if _, err := c.Reach("g", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Reach after remove: %v, want ErrNotFound", err)
	}
	if err := c.Remove("g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v, want ErrNotFound", err)
	}
}

// TestConcurrentReachSingleFlight hammers one key from many goroutines:
// every caller must get the same index and the build must run once.
func TestConcurrentReachSingleFlight(t *testing.T) {
	c := New(4)
	c.mu.Lock()
	g := chain(64)
	g.Finish()
	c.graphs["g"] = &graphEntry{g: g} // bypass Register's eager build
	c.mu.Unlock()

	const workers = 32
	results := make([]any, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Reach("g", 0)
			if err != nil {
				results[i] = err
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got %v, worker 0 got %v", i, results[i], results[0])
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", s.Misses)
	}
	if s.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, workers-1)
	}
}

// TestContentSetsCachedAndConsistent checks that the data-side content
// index is computed once per graph and returned with the graph it
// indexes.
func TestContentSetsCachedAndConsistent(t *testing.T) {
	c := New(4)
	g := chain(5)
	if err := c.Register("g", g); err != nil {
		t.Fatal(err)
	}
	cg, sets, err := c.ContentSets("g")
	if err != nil {
		t.Fatal(err)
	}
	if cg != g {
		t.Fatalf("ContentSets returned a different graph")
	}
	if sets.NumNodes() != g.NumNodes() {
		t.Fatalf("sets = %d, want %d", sets.NumNodes(), g.NumNodes())
	}
	_, sets2, err := c.ContentSets("g")
	if err != nil {
		t.Fatal(err)
	}
	if sets != sets2 {
		t.Fatalf("ContentSets recomputed instead of returning the cached index")
	}
	if _, _, err := c.ContentSets("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing graph: %v, want ErrNotFound", err)
	}
	// GetWithReach returns a consistent (graph, closure) pair.
	gg, r, err := c.GetWithReach("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if gg != g || r.NumNodes() != g.NumNodes() {
		t.Fatalf("GetWithReach pair inconsistent")
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatalf("empty hit rate = %v", s.HitRate())
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestGetWithIndexSharedAndConsistent(t *testing.T) {
	c := New(4)
	g := chain(12)
	if err := c.Register("web", g); err != nil {
		t.Fatal(err)
	}
	g1, r1, idx1, err := c.GetWithIndex("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, r2, idx2, err := c.GetWithIndex("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || r1 != r2 || idx1 != idx2 {
		t.Fatal("GetWithIndex must return the shared (graph, reach, index) triple")
	}
	// The index must agree with the reach it derives from.
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if idx1.Reachable(graph.NodeID(u), graph.NodeID(v)) != r1.Reachable(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("index disagrees with reach at (%d,%d)", u, v)
			}
		}
	}
	// A different path limit is a different cache slot with its own index.
	_, rb, idxB, err := c.GetWithIndex("web", 1)
	if err != nil {
		t.Fatal(err)
	}
	if idxB == idx1 || rb == r1 {
		t.Fatal("bounded index must not share the unbounded slot")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// A budget big enough for roughly one chain(60) closure: resolving a
	// second graph must evict the first, but never the entry just
	// resolved.
	c := New(16, WithMaxBytes(int64(closureFootprint(60))+64))
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, chain(60)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no byte-budget evictions after two registrations: %+v", st)
	}
	if st.MaxBytes <= 0 {
		t.Fatalf("MaxBytes = %d, want > 0", st.MaxBytes)
	}
	if st.ResidentBytes > st.MaxBytes {
		t.Fatalf("ResidentBytes %d exceeds budget %d", st.ResidentBytes, st.MaxBytes)
	}
	// The most recent graph must still resolve from cache (a hit).
	before := c.Stats().Hits
	if _, _, err := c.GetWithReach("b", 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != before+1 {
		t.Fatal("byte eviction removed the most recently resolved entry")
	}
}

func TestByteBudgetKeepsOversizedEntryServing(t *testing.T) {
	// One graph alone blows the budget: its requests must still be
	// served (the entry survives as the sole resident) rather than
	// thrashing.
	c := New(16, WithMaxBytes(8))
	if err := c.Register("big", chain(40)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetWithIndex("big", 0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResidentClosures != 1 {
		t.Fatalf("ResidentClosures = %d, want the oversized entry to stay resident", st.ResidentClosures)
	}
}

// closureFootprint reports the resident bytes of one chain(n) closure
// as the catalog accounts them.
func closureFootprint(n int) int {
	return closure.Compute(chain(n)).Bytes()
}

func TestConcurrentIndexSingleFlight(t *testing.T) {
	c := New(4)
	if err := c.Register("web", chain(60)); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	got := make([]closure.Index, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, idx, err := c.GetWithIndex("web", 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = idx
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent GetWithIndex built more than one index")
		}
	}
	if st := c.Stats(); st.ResidentClosures != 1 || st.Misses != 1 {
		t.Fatalf("%d closures resident after %d builds, want 1 and 1", st.ResidentClosures, st.Misses)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := New(2)
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, chain(20)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.ResidentBytes <= 0 {
		t.Fatalf("ResidentBytes = %d, want > 0 after registration", st.ResidentBytes)
	}
	if _, _, _, err := c.GetWithIndex("a", 0); err != nil {
		t.Fatal(err)
	}
	// The index wraps the closure and holds nothing of its own.
	if withIdx := c.Stats(); withIdx.ResidentBytes != st.ResidentBytes {
		t.Fatalf("resolving the index moved ResidentBytes %d → %d", st.ResidentBytes, withIdx.ResidentBytes)
	}
	// Filling the LRU with fresh slots evicts the old ones and returns
	// their bytes; removing everything zeroes the account.
	if _, _, err := c.GetWithReach("a", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetWithReach("b", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("b"); err != nil {
		t.Fatal(err)
	}
	end := c.Stats()
	if end.ResidentBytes != 0 || end.ResidentClosures != 0 {
		t.Fatalf("after removing all graphs: %+v, want empty accounting", end)
	}
}

func TestResidentIndexAccountingZeroByteIndex(t *testing.T) {
	// A 0-node graph's closure and index occupy zero bytes but are
	// still resident; the ResidentClosures counter must balance across
	// build and removal even then.
	c := New(2)
	empty := graph.New(0)
	if err := c.Register("empty", empty); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetWithIndex("empty", 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentClosures != 1 {
		t.Fatalf("ResidentClosures = %d, want 1", st.ResidentClosures)
	}
	if err := c.Remove("empty"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ResidentClosures != 0 || st.ResidentBytes != 0 {
		t.Fatalf("after remove: %+v, want zeroed accounting", st)
	}
}

func TestByteBudgetEvictsPastKeptEntry(t *testing.T) {
	// keep can sit at the LRU back when a concurrent hit promoted
	// another entry between keep's insertion and its build landing; the
	// evictor must skip keep and still reclaim the entries in front of
	// it, not give up. White-box: the interleaving is driven directly
	// because it needs a hit mid-build.
	c := New(16) // no byte budget yet: both entries must come resident
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, chain(30)); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	keep := c.closures[closureKey{name: "b", pathLimit: 0}]
	if keep == nil {
		t.Fatalf("entry b missing")
	}
	c.lru.MoveToBack(keep.elem) // the concurrent-hit-promoted-a shape
	c.maxBytes = 1              // now force the budget under both entries
	c.evictBytesLocked(keep)
	c.mu.Unlock()
	st := c.Stats()
	if st.ResidentClosures != 1 {
		t.Fatalf("ResidentClosures = %d, want only the kept entry resident", st.ResidentClosures)
	}
	c.mu.Lock()
	_, aAlive := c.closures[closureKey{name: "a", pathLimit: 0}]
	_, bAlive := c.closures[closureKey{name: "b", pathLimit: 0}]
	c.mu.Unlock()
	if aAlive || !bAlive {
		t.Fatalf("evictor kept a=%v b=%v, want the non-kept entry evicted", aAlive, bAlive)
	}
}

// TestNamesSorted is the determinism regression for the graph listing:
// names come back sorted no matter the registration order, so /v1/graphs
// and the search subsystem see a stable enumeration.
func TestNamesSorted(t *testing.T) {
	c := New(8)
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		if err := c.Register(name, chain(3)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	for i := 0; i < 5; i++ { // map iteration would betray itself across calls
		got := c.Names()
		if len(got) != len(want) {
			t.Fatalf("Names = %v", got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Names = %v, want %v", got, want)
			}
		}
	}
}

// TestMutationHook pins the hook contract: replay on install, one
// event per Register/Remove, in order.
func TestMutationHook(t *testing.T) {
	type event struct {
		name    string
		removed bool
	}
	c := New(4)
	if err := c.Register("pre", chain(3)); err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		events []event
	)
	c.SetMutationHook(func(name string, g *graph.Graph, m Mutation) func() {
		if g == nil {
			t.Errorf("hook for %q got nil graph", name)
		}
		mu.Lock()
		events = append(events, event{name, m.Removed})
		mu.Unlock()
		return nil
	})
	if err := c.Register("a", chain(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("pre"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
	want := []event{{"pre", false}, {"a", false}, {"pre", true}}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// TestDescribe checks the detail view: graph size plus resident
// closure/index accounting, and ErrNotFound for unknown names.
func TestDescribe(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(6)); err != nil {
		t.Fatal(err)
	}
	info, err := c.Describe("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "g" || info.Nodes != 6 || info.Edges != 5 {
		t.Fatalf("info = %+v", info)
	}
	if info.ResidentClosures != 1 || info.ClosureBytes <= 0 {
		t.Fatalf("closure accounting: %+v", info)
	}
	if _, err := c.Describe("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("describe missing: %v", err)
	}
}

// TestApplyPatch checks the live-mutation path: copy-on-write swap,
// closure invalidation + eager rebuild, and the mutation hook firing
// with the patched graph.
func TestApplyPatch(t *testing.T) {
	c := New(4)
	if err := c.Register("web", chain(3)); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Get("web")
	oldReach, err := c.Reach("web", 0)
	if err != nil {
		t.Fatal(err)
	}

	var hooked *graph.Graph
	var hookedMut Mutation
	settled := 0
	c.SetMutationHook(func(name string, g *graph.Graph, m Mutation) func() {
		if name == "web" && !m.Removed {
			hooked = g
			hookedMut = m
		}
		if m.Patch == nil {
			return nil
		}
		// Deferred work runs once the lock is released: it can call back
		// into the catalog.
		return func() { settled += c.Len() }
	})

	ng, err := c.Apply("web", &graph.Patch{
		AddNodes: []graph.Node{{Label: "n3", Weight: 1}},
		AddEdges: [][2]graph.NodeID{{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng == old {
		t.Fatal("Apply mutated in place instead of copy-on-write")
	}
	if settled != 1 {
		t.Fatalf("the hook's settle func ran %d times, want once after the commit", settled)
	}
	if old.NumNodes() != 3 {
		t.Fatal("old graph mutated")
	}
	got, _ := c.Get("web")
	if got != ng || got.NumNodes() != 4 {
		t.Fatalf("registry holds %v, want patched graph", got)
	}
	if hooked != ng {
		t.Fatal("mutation hook did not observe the patched graph")
	}
	if hookedMut.Patch == nil || hookedMut.Prev != old {
		t.Fatalf("mutation hook delta = %+v, want patch and previous graph", hookedMut)
	}
	// The cached closure was replaced for the new graph (patched
	// incrementally or rebuilt — either way a fresh value).
	newReach, err := c.Reach("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if newReach == oldReach {
		t.Fatal("stale closure survived the patch")
	}
	if !newReach.Reachable(0, 3) {
		t.Fatal("rebuilt closure misses the patched path 0→3")
	}

	// Bad patches leave everything untouched.
	if _, err := c.Apply("web", &graph.Patch{DelEdges: [][2]graph.NodeID{{3, 0}}}); err == nil {
		t.Fatal("deleting an absent edge should fail")
	}
	if g, _ := c.Get("web"); g != ng {
		t.Fatal("failed patch replaced the graph")
	}
	if _, err := c.Apply("missing", &graph.Patch{AddNodes: []graph.Node{{Label: "x"}}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("apply to missing graph: %v", err)
	}
	if _, err := c.Apply("web", &graph.Patch{}); err == nil {
		t.Fatal("empty patch should fail")
	}
}

// vetoPersister fails every log call.
type vetoPersister struct{ err error }

func (v vetoPersister) LogRegister(context.Context, string, *graph.Graph) error { return v.err }
func (v vetoPersister) LogRemove(context.Context, string) error                 { return v.err }
func (v vetoPersister) LogPatch(context.Context, string, *graph.Patch) error    { return v.err }

// TestPersisterVeto checks write-ahead semantics: a persister error
// aborts the mutation before anything commits.
func TestPersisterVeto(t *testing.T) {
	c := New(4)
	if err := c.Register("keep", chain(3)); err != nil {
		t.Fatal(err)
	}
	bang := errors.New("disk full")
	c.SetPersister(vetoPersister{err: bang})

	if err := c.Register("new", chain(2)); !errors.Is(err, bang) {
		t.Fatalf("register under veto: %v", err)
	}
	if _, err := c.Get("new"); !errors.Is(err, ErrNotFound) {
		t.Fatal("vetoed register still committed")
	}
	if err := c.Remove("keep"); !errors.Is(err, bang) {
		t.Fatalf("remove under veto: %v", err)
	}
	if _, err := c.Get("keep"); err != nil {
		t.Fatal("vetoed remove still committed")
	}
	if _, err := c.Apply("keep", &graph.Patch{AddNodes: []graph.Node{{Label: "x"}}}); !errors.Is(err, bang) {
		t.Fatalf("apply under veto: %v", err)
	}
	if g, _ := c.Get("keep"); g.NumNodes() != 3 {
		t.Fatal("vetoed apply still committed")
	}

	c.SetPersister(nil)
	if err := c.Register("new", chain(2)); err != nil {
		t.Fatal(err)
	}
}

func TestExport(t *testing.T) {
	c := New(4)
	for _, n := range []string{"a", "b"} {
		if err := c.Register(n, chain(3)); err != nil {
			t.Fatal(err)
		}
	}
	prepared := false
	state := c.Export(func() { prepared = true })
	if !prepared {
		t.Fatal("prepare did not run")
	}
	if len(state) != 2 {
		t.Fatalf("exported %d graphs, want 2", len(state))
	}
	ga, _ := c.Get("a")
	if state["a"] != ga {
		t.Fatal("export should share the registered graph objects")
	}
}

// applyRandomPatch builds and applies a random valid patch to the named
// graph in every given catalog, failing the test on any error or if the
// catalogs diverge on the patched graph.
func applyRandomPatch(t *testing.T, rng *rand.Rand, name string, cats ...*Catalog) {
	t.Helper()
	g, err := cats[0].Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var p *graph.Patch
	for p == nil || p.Empty() {
		p = &graph.Patch{}
		for i := 0; i < rng.Intn(3); i++ {
			p.AddNodes = append(p.AddNodes, graph.Node{Label: fmt.Sprintf("p%d", rng.Intn(100)), Weight: 1})
		}
		total := g.NumNodes() + len(p.AddNodes)
		var existing [][2]graph.NodeID
		g.Edges(func(from, to graph.NodeID) bool {
			existing = append(existing, [2]graph.NodeID{from, to})
			return true
		})
		seen := map[[2]graph.NodeID]bool{}
		for i := 0; i < rng.Intn(4) && len(existing) > 0; i++ {
			e := existing[rng.Intn(len(existing))]
			if !seen[e] {
				seen[e] = true
				p.DelEdges = append(p.DelEdges, e)
			}
		}
		for i := 0; i < rng.Intn(5); i++ {
			e := [2]graph.NodeID{graph.NodeID(rng.Intn(total)), graph.NodeID(rng.Intn(total))}
			if !seen[e] {
				p.AddEdges = append(p.AddEdges, e)
			}
		}
	}
	for _, c := range cats {
		if _, err := c.Apply(name, p); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
}

// TestApplyIncrementalEquivalence is the closure-maintenance
// quickcheck: a catalog patching its cached closures incrementally must
// expose exactly the same reachability and index answers as one that
// rebuilds from scratch (WithDeltaBudget(-1)), across arbitrary patch
// sequences. After every patch, on both catalogs, the resolved index
// is a CompIndex over the very closure the resolve returned: the index
// follows its closure by construction, with nothing of its own to patch.
func TestApplyIncrementalEquivalence(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	resolve := func(c *Catalog, where string) (*closure.Reach, closure.Index) {
		t.Helper()
		_, r, idx, err := c.GetWithIndex("g", 0)
		if err != nil {
			t.Fatal(err)
		}
		if ci, ok := idx.(*closure.CompIndex); !ok || ci.Reach() != r {
			t.Fatalf("%s: resolved index %T does not wrap the resolved closure", where, idx)
		}
		return r, idx
	}
	// The catalog builds one index, the sparse component-probe tier
	// (closure.CompIndex); the subtest keeps that tier's name.
	t.Run("sparse", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			n := 4 + rng.Intn(12)
			g := graph.New(n)
			for i := 0; i < n; i++ {
				g.AddNode(fmt.Sprintf("n%d", i))
			}
			for i := 0; i < rng.Intn(3*n); i++ {
				g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			}
			g.Finish()

			inc := New(0)
			reb := New(0, WithDeltaBudget(-1))
			for _, c := range []*Catalog{inc, reb} {
				if err := c.Register("g", g); err != nil {
					t.Fatal(err)
				}
			}

			for step := 0; step < 6; step++ {
				applyRandomPatch(t, rng, "g", inc, reb)
				where := fmt.Sprintf("trial %d step %d", trial, step)
				ri, ii := resolve(inc, where+" (incremental)")
				rr, ir := resolve(reb, where+" (rebuild)")
				if ri.NumNodes() != rr.NumNodes() {
					t.Fatalf("%s: node counts diverge: %d vs %d", where, ri.NumNodes(), rr.NumNodes())
				}
				for u := 0; u < ri.NumNodes(); u++ {
					uu := graph.NodeID(u)
					for v := 0; v < ri.NumNodes(); v++ {
						vv := graph.NodeID(v)
						if ri.Reachable(uu, vv) != rr.Reachable(uu, vv) {
							t.Fatalf("%s: reachability diverges at (%d,%d): inc=%v reb=%v",
								where, u, v, ri.Reachable(uu, vv), rr.Reachable(uu, vv))
						}
						if ii.Reachable(uu, vv) != ir.Reachable(uu, vv) {
							t.Fatalf("%s: index diverges at (%d,%d)", where, u, v)
						}
					}
				}
			}
			if inc.Stats().PatchesIncremental == 0 {
				t.Fatalf("trial %d: incremental catalog never took the delta path", trial)
			}
			if reb.Stats().PatchesIncremental != 0 {
				t.Fatalf("trial %d: rebuild catalog took the delta path", trial)
			}
		}
	})
}

// contentPatch draws a random valid patch out of content rewrites, node
// appends and edge inserts, whichever of the three the flags allow.
func contentPatch(rng *rand.Rand, g *graph.Graph, content, nodes, edges bool) *graph.Patch {
	text := func() string {
		return fmt.Sprintf("w%d w%d w%d w%d w%d", rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4))
	}
	for {
		p := &graph.Patch{}
		if nodes {
			for i := rng.Intn(3); i > 0; i-- {
				p.AddNodes = append(p.AddNodes, graph.Node{Label: fmt.Sprintf("p%d", rng.Intn(5)), Weight: 1, Content: text()})
			}
		}
		total := g.NumNodes() + len(p.AddNodes)
		if content {
			for i := rng.Intn(3); i > 0; i-- {
				cu := graph.ContentUpdate{Node: graph.NodeID(rng.Intn(total))}
				if rng.Intn(4) > 0 { // else clear it: the label takes over
					cu.Content = text()
				}
				p.SetContent = append(p.SetContent, cu)
			}
		}
		if edges {
			for i := 1 + rng.Intn(3); i > 0; i-- {
				e := [2]graph.NodeID{graph.NodeID(rng.Intn(total)), graph.NodeID(rng.Intn(total))}
				if int(e[0]) >= g.NumNodes() || int(e[1]) >= g.NumNodes() || !g.HasEdge(e[0], e[1]) {
					p.AddEdges = append(p.AddEdges, e)
				}
			}
		}
		if !p.Empty() {
			return p
		}
	}
}

// sameContentIndex compares two content indexes by everything a request
// can see of them: the matrix of every node of g against g, and the
// size they report.
func sameContentIndex(t *testing.T, where string, g *graph.Graph, got, want *simmatrix.ContentIndex) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: carried index covers %d nodes in %d B, a fresh build %d in %d B",
			where, got.NumNodes(), got.Bytes(), want.NumNodes(), want.Bytes())
	}
	sets := simmatrix.ContentSets(g, 0)
	mg, mw := got.Matrix(sets), want.Matrix(sets)
	for v := 0; v < g.NumNodes(); v++ {
		for u := 0; u < g.NumNodes(); u++ {
			if a, b := mg.Score(graph.NodeID(v), graph.NodeID(u)), mw.Score(graph.NodeID(v), graph.NodeID(u)); a != b {
				t.Fatalf("%s: mat(%d,%d) = %v over the carried index, %v over a fresh build", where, v, u, a, b)
			}
		}
	}
}

// TestCandidateIndexCarriedAcrossPatches drives random patch sequences —
// content rewrites, node appends, edge edits, merged batches — with
// content requests arriving at random points between them (so the index
// is sometimes built, sometimes pending behind several patches, sometimes
// never built), and checks the index the catalog hands out always equals
// a fresh build over the current graph.
func TestCandidateIndexCarriedAcrossPatches(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := New(4)
		g := chain(3 + rng.Intn(8))
		if err := c.Register("g", g); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			cur, err := c.Get("g")
			if err != nil {
				t.Fatal(err)
			}
			p := contentPatch(rng, cur, true, true, true)
			if rng.Intn(3) == 0 { // a coalesced batch: two patches merged into one commit
				mid, err := cur.ApplyPatch(p)
				if err != nil {
					t.Fatal(err)
				}
				if p, err = graph.MergePatches(cur, p, contentPatch(rng, mid, true, true, true)); err != nil {
					t.Fatal(err)
				}
				if p.Empty() {
					continue
				}
			}
			ng, err := c.Apply("g", p)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				continue // no content request between this patch and the next
			}
			cg, ix, err := c.ContentSets("g")
			if err != nil {
				t.Fatal(err)
			}
			if cg != ng {
				t.Fatalf("trial %d step %d: content index returned with a graph other than the current one", trial, step)
			}
			sameContentIndex(t, fmt.Sprintf("trial %d step %d", trial, step), ng, ix, simmatrix.NewContentIndex(ng, 0))
		}
	}
}

// TestCandidateIndexPatchRules pins what each kind of patch does to the
// candidate index and to the bytes the catalog reports for it: an
// edge-only patch hands the very same index on, a patch that rewrites or
// appends text leaves the successor to build its own on the next content
// request, and the running total follows every build, swap and removal.
func TestCandidateIndexPatchRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(4)
	g := chain(40)
	if err := c.Register("g", g); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("other", chain(5)); err != nil {
		t.Fatal(err)
	}
	total := func(where string, want int64) {
		t.Helper()
		if got := c.Stats().CandidateIndexBytes; got != want {
			t.Fatalf("%s: Stats.CandidateIndexBytes = %d, want %d", where, got, want)
		}
	}
	total("before any content request", 0)
	_, built, err := c.ContentSets("g")
	if err != nil {
		t.Fatal(err)
	}
	if built.Bytes() == 0 {
		t.Fatal("a built index reports 0 bytes")
	}
	total("after the first build", built.Bytes())

	cur := g
	for i := 0; i < 5; i++ {
		if cur, err = c.Apply("g", contentPatch(rng, cur, false, false, true)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ix, _ := c.ContentSets("g"); ix != built {
		t.Fatal("edge-only patches did not carry the content index forward by pointer")
	}
	total("after edge-only patches", built.Bytes())

	if cur, err = c.Apply("g", &graph.Patch{SetContent: []graph.ContentUpdate{{Node: 7, Content: "entirely new words on page seven"}}}); err != nil {
		t.Fatal(err)
	}
	total("after a content rewrite, before the next content request", 0)
	_, ix, _ := c.ContentSets("g")
	if ix == built {
		t.Fatal("a content rewrite kept the old index")
	}
	sameContentIndex(t, "after SetContent", cur, ix, simmatrix.NewContentIndex(cur, 0))

	if cur, err = c.Apply("g", &graph.Patch{
		AddNodes: []graph.Node{{Label: "x", Weight: 1, Content: "a"}, {Label: "y", Weight: 1}},
		AddEdges: [][2]graph.NodeID{{0, 40}, {40, 41}},
	}); err != nil {
		t.Fatal(err)
	}
	_, grown, _ := c.ContentSets("g")
	if grown.NumNodes() != 42 {
		t.Fatalf("after appending two nodes the index covers %d of 42", grown.NumNodes())
	}
	sameContentIndex(t, "after AddNodes", cur, grown, simmatrix.NewContentIndex(cur, 0))

	info, err := c.Describe("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.CandidateIndexBytes != grown.Bytes() {
		t.Fatalf("GraphInfo.CandidateIndexBytes = %d, the index holds %d", info.CandidateIndexBytes, grown.Bytes())
	}
	_, small, _ := c.ContentSets("other")
	total("two graphs indexed", grown.Bytes()+small.Bytes())

	// A reader still holding a replaced entry may build that entry's
	// index; nothing registered owns it, so it is not counted.
	r, err := c.ResolveCtx(context.Background(), "other", 0, NeedGraph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply("other", &graph.Patch{AddNodes: []graph.Node{{Label: "z", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	total("after patching the second graph", grown.Bytes())
	if r.Content() != small {
		t.Fatal("a held entry lost its index")
	}
	r2, err := c.ResolveCtx(context.Background(), "g", 0, NeedGraph)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("g"); err != nil {
		t.Fatal(err)
	}
	total("after removing the first graph", 0)
	if r2.Content() != grown {
		t.Fatal("a held entry lost its index")
	}
	if _, _, err := c.ContentSets("other"); err != nil {
		t.Fatal(err)
	}
	if c.Stats().CandidateIndexBytes == 0 {
		t.Fatal("the rebuilt index of the second graph is not counted")
	}
	if err := c.Replace(map[string]*graph.Graph{"fresh": chain(3)}); err != nil {
		t.Fatal(err)
	}
	total("after Replace", 0)
}

// TestCandidateIndexBytesUnderRaces: content requests building indexes
// while patches swap entries underneath them must leave the running total
// at exactly the registered entry's index, whichever side won each race.
func TestCandidateIndexBytesUnderRaces(t *testing.T) {
	c := New(4)
	if err := c.Register("g", chain(30)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				cur, err := c.Get("g")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Apply("g", contentPatch(rng, cur, i%3 == 0, i%7 == 0, true)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, _, err := c.ContentSets("g"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	_, ix, err := c.ContentSets("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().CandidateIndexBytes; got != ix.Bytes() {
		t.Fatalf("Stats.CandidateIndexBytes = %d after the dust settled, the registered index holds %d", got, ix.Bytes())
	}
}
