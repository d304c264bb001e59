package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

// fullResult strips the non-deterministic field (timing) from a match
// result so two engines can be compared bit for bit.
type fullResult struct {
	Mapping  map[graph.NodeID]graph.NodeID
	Holds    bool
	QualCard float64
	QualSim  float64
	Err      string
}

func normalise(res Result) fullResult {
	out := fullResult{Holds: res.Holds, QualCard: res.QualCard, QualSim: res.QualSim}
	if res.Mapping != nil {
		out.Mapping = map[graph.NodeID]graph.NodeID(res.Mapping)
	}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	return out
}

// probeEngines runs identical match and search traffic against both
// engines and fails the test on any divergence — mappings, qualities,
// hit order, prefilter scores, everything deterministic must agree.
func probeEngines(t *testing.T, label string, a, b *Engine, patterns []*graph.Graph) {
	t.Helper()
	ctx := context.Background()
	if got, want := a.Catalog().Names(), b.Catalog().Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: catalogs diverge: %v vs %v", label, got, want)
	}
	names := a.Catalog().Names()
	for pi, pattern := range patterns {
		for _, algo := range []Algorithm{MaxCard, MaxSim} {
			for _, sim := range []SimKind{SimLabel, SimContent} {
				for _, name := range names {
					req := Request{Pattern: pattern, GraphName: name, Algo: algo, Xi: 0.7, Sim: sim}
					ra := normalise(a.Match(ctx, req))
					rb := normalise(b.Match(ctx, req))
					if !reflect.DeepEqual(ra, rb) {
						t.Fatalf("%s: pattern %d %s/%s vs %q diverge:\n%+v\n%+v",
							label, pi, algo, sim, name, ra, rb)
					}
				}
				sreq := SearchRequest{Pattern: pattern, Algo: algo, Xi: 0.7, Sim: sim, K: 5}
				sa, sb := a.Search(ctx, sreq), b.Search(ctx, sreq)
				if sa.Err != nil || sb.Err != nil {
					t.Fatalf("%s: search err %v / %v", label, sa.Err, sb.Err)
				}
				if !reflect.DeepEqual(sa.Hits, sb.Hits) {
					t.Fatalf("%s: pattern %d %s/%s search hits diverge:\n%+v\n%+v",
						label, pi, algo, sim, sa.Hits, sb.Hits)
				}
			}
		}
	}
}

// randomPatch derives a valid random patch for g: new pages, content
// edits, link additions and deletions.
func randomPatch(rng *rand.Rand, g *graph.Graph) *graph.Patch {
	n := g.NumNodes()
	p := &graph.Patch{}
	adds := 1 + rng.Intn(2)
	for i := 0; i < adds; i++ {
		p.AddNodes = append(p.AddNodes, graph.Node{
			Label:   "patched",
			Weight:  1,
			Content: fmt.Sprintf("patched page %d added by mutation", rng.Intn(1000)),
		})
	}
	total := n + adds
	for i := 0; i < 2; i++ {
		p.SetContent = append(p.SetContent, graph.ContentUpdate{
			Node:    graph.NodeID(rng.Intn(n)),
			Content: fmt.Sprintf("rewritten content %d", rng.Intn(1000)),
		})
	}
	// Delete one existing edge, if the graph has any.
	if g.NumEdges() > 0 {
		for tries := 0; tries < 50; tries++ {
			v := graph.NodeID(rng.Intn(n))
			if post := g.Post(v); len(post) > 0 {
				p.DelEdges = append(p.DelEdges, [2]graph.NodeID{v, post[rng.Intn(len(post))]})
				break
			}
		}
	}
	for i := 0; i < 3; i++ {
		p.AddEdges = append(p.AddEdges, [2]graph.NodeID{
			graph.NodeID(rng.Intn(total)), graph.NodeID(rng.Intn(total)),
		})
	}
	return p
}

// TestReplayEquivalenceQuickCheck is the crash-recovery property: over
// random webgen catalogs and random mutation sequences (register,
// patch, remove), an engine abandoned without Close (kill -9: the WAL
// fsyncs every acknowledged op, nothing else is needed) and reopened
// from its store must serve bit-identical match and search results to
// a reference engine that applied the same ops and never restarted.
func TestReplayEquivalenceQuickCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("matcher-heavy quickcheck")
	}
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(173 * (trial + 1))))
			dir := t.TempDir()
			// A mid-sequence snapshot in some trials exercises the
			// snapshot+WAL replay path, not just pure WAL.
			durable, err := Open(Options{Workers: 2, StorePath: dir})
			if err != nil {
				t.Fatal(err)
			}
			reference := New(Options{Workers: 2})
			defer reference.Close()

			var patterns []*graph.Graph
			names := []string{}
			apply := func(op func(e *Engine) error) {
				if err := op(durable); err != nil {
					t.Fatal(err)
				}
				if err := op(reference); err != nil {
					t.Fatal(err)
				}
			}
			// Seed catalog.
			sites := 2 + rng.Intn(2)
			for s := 0; s < sites; s++ {
				arch := webgen.Generate(webgen.Config{
					Category: cats[rng.Intn(len(cats))],
					Pages:    50 + rng.Intn(40),
					Versions: 2,
					Seed:     int64(trial*50 + s),
				})
				for v, g := range arch.Versions {
					name := fmt.Sprintf("site%d/v%d", s, v)
					names = append(names, name)
					// Register clones per engine would share the graph object;
					// both catalogs take ownership, so give each its own copy.
					g2 := g.Clone()
					apply(func(e *Engine) error {
						if e == reference {
							return e.Register(context.Background(), name, g2)
						}
						return e.Register(context.Background(), name, g)
					})
				}
				patterns = append(patterns, webgen.TopKSkeleton(arch.Versions[0], 8))
			}
			// Random mutation sequence.
			for i := 0; i < 12; i++ {
				switch r := rng.Float64(); {
				case r < 0.55: // patch a random survivor
					name := names[rng.Intn(len(names))]
					res, err := durable.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
					g := res.Graph
					if err != nil {
						continue
					}
					p := randomPatch(rng, g)
					apply(func(e *Engine) error { _, err := e.ApplyPatch(context.Background(), name, p); return err })
				case r < 0.7 && len(names) > 2: // remove one
					j := rng.Intn(len(names))
					name := names[j]
					names = append(names[:j], names[j+1:]...)
					apply(func(e *Engine) error { return e.Remove(context.Background(), name) })
				default: // register a fresh small graph
					name := fmt.Sprintf("extra%d", i)
					g := webgen.Generate(webgen.Config{
						Category: cats[rng.Intn(len(cats))],
						Pages:    30,
						Versions: 1,
						Seed:     int64(1000*trial + i),
					}).Versions[0]
					g2 := g.Clone()
					names = append(names, name)
					apply(func(e *Engine) error {
						if e == reference {
							return e.Register(context.Background(), name, g2)
						}
						return e.Register(context.Background(), name, g)
					})
				}
				if trial%2 == 0 && i == 5 {
					if _, err := durable.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Crash: no engine Close — store.Abandon drops the fds and the
			// directory flock exactly as process death would; every
			// acknowledged op is already fsynced. (The leaked workers idle
			// until the test binary exits.)
			durable.store.Abandon()
			reopened, err := Open(Options{Workers: 2, StorePath: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			probeEngines(t, fmt.Sprintf("trial %d", trial), reopened, reference, patterns)
		})
	}
}

// TestPersistMutationBurstCrash hammers a durable engine with
// concurrent patch bursts against distinct graphs, "kills" it without
// Close, and checks the replayed engine agrees with a reference that
// applied the same acknowledged patches.
func TestPersistMutationBurstCrash(t *testing.T) {
	dir := t.TempDir()
	durable, err := Open(Options{Workers: 4, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	reference := New(Options{Workers: 4})
	defer reference.Close()

	const graphs = 4
	for s := 0; s < graphs; s++ {
		g := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 40, Versions: 1, Seed: int64(s)}).Versions[0]
		if err := durable.Register(context.Background(), fmt.Sprintf("g%d", s), g.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := reference.Register(context.Background(), fmt.Sprintf("g%d", s), g); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent bursts, one goroutine per graph so per-graph patch
	// order is deterministic and the reference can mirror it.
	var wg sync.WaitGroup
	patches := make([][]*graph.Patch, graphs)
	for s := 0; s < graphs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 + s)))
			name := fmt.Sprintf("g%d", s)
			for i := 0; i < 8; i++ {
				res, err := durable.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
				g := res.Graph
				if err != nil {
					t.Error(err)
					return
				}
				p := randomPatch(rng, g)
				if _, err := durable.ApplyPatch(context.Background(), name, p); err != nil {
					t.Error(err)
					return
				}
				patches[s] = append(patches[s], p)
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for s, ps := range patches {
		name := fmt.Sprintf("g%d", s)
		for _, p := range ps {
			if _, err := reference.ApplyPatch(context.Background(), name, p); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Crash without Close (Abandon = what kill -9 leaves), reopen, compare.
	durable.store.Abandon()
	reopened, err := Open(Options{Workers: 4, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	pattern := webgen.TopKSkeleton(func() *graph.Graph {
		res, err := reference.Catalog().Resolve(context.Background(), "g0", 0, catalog.NeedGraph)
		g := res.Graph
		if err != nil {
			t.Fatal(err)
		}
		return g
	}(), 8)
	probeEngines(t, "burst", reopened, reference, []*graph.Graph{pattern})
}

// TestPersistSnapshotEvery checks the automatic background compaction
// trigger: after enough mutations the WAL is folded into a snapshot.
func TestPersistSnapshotEvery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Workers: 2, StorePath: dir, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		g := graph.FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
		if err := e.Register(context.Background(), fmt.Sprintf("g%02d", i), g); err != nil {
			t.Fatal(err)
		}
	}
	e.Close() // waits out any background snapshot mid-write
	st, ok := e.StoreStats()
	if !ok {
		t.Fatal("no store stats")
	}
	if st.Snapshots == 0 {
		t.Fatalf("no background snapshot after 12 mutations with SnapshotEvery=5: %+v", st)
	}

	reopened, err := Open(Options{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Catalog().Len(); got != 12 {
		t.Fatalf("reopened catalog has %d graphs, want 12", got)
	}
}

// TestPersistApplyPatchSearchCoherence checks the mutation →
// invalidation contract end to end: after a patch rewrites content,
// search sees the new shingles immediately, without re-registering.
func TestPersistApplyPatchSearchCoherence(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	mk := func(content string) *graph.Graph {
		g := graph.FromEdgeList([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
		for v := 0; v < 3; v++ {
			g.SetContent(graph.NodeID(v), content)
		}
		return g
	}
	if err := e.Register(context.Background(), "target", mk("completely unrelated filler text about nothing")); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(context.Background(), "decoy", mk("some other filler that stays put")); err != nil {
		t.Fatal(err)
	}
	pattern := mk("the quick brown fox jumps over the lazy dog")

	res := e.Search(context.Background(), SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: 0.7, Sim: SimContent, K: 1, MinResemblance: 0.5})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("expected no hits before the patch, got %v", res.Hits)
	}

	// Rewrite target's contents to the pattern's text via a live patch.
	p := &graph.Patch{}
	for v := 0; v < 3; v++ {
		p.SetContent = append(p.SetContent, graph.ContentUpdate{Node: graph.NodeID(v), Content: "the quick brown fox jumps over the lazy dog"})
	}
	if _, err := e.ApplyPatch(context.Background(), "target", p); err != nil {
		t.Fatal(err)
	}
	res = e.Search(context.Background(), SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: 0.7, Sim: SimContent, K: 1, MinResemblance: 0.5})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Graph != "target" {
		t.Fatalf("patched graph not found by search: %+v", res.Hits)
	}
}
