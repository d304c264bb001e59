package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

// registerArchive registers every version of a small webgen archive
// under "<prefix>/vN" and returns the oldest version's skeleton as a
// query pattern.
func registerArchive(t *testing.T, e *Engine, prefix string, cat webgen.Category, seed int64, pages, versions, patNodes int) *graph.Graph {
	t.Helper()
	arch := webgen.Generate(webgen.Config{Category: cat, Pages: pages, Versions: versions, Seed: seed})
	for v, g := range arch.Versions {
		if err := e.Register(fmt.Sprintf("%s/v%d", prefix, v), g); err != nil {
			t.Fatal(err)
		}
	}
	return webgen.TopKSkeleton(arch.Versions[0], patNodes)
}

func hitNames(res SearchResult) []string {
	out := make([]string, len(res.Hits))
	for i, h := range res.Hits {
		out[i] = h.Graph
	}
	return out
}

// TestSearchEquivalenceQuickCheck is the search-vs-brute-force
// property: over random webgen catalogs, the top-k from the prefiltered
// path must equal an exhaustive scan that matches every registered
// graph — exactly under the no-pruning policy (the prefilter then only
// orders candidates), and on these workloads also under a real pruning
// threshold (pruned graphs score below the survivors).
func TestSearchEquivalenceQuickCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("matcher-heavy quickcheck")
	}
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	for trial := 0; trial < 3; trial++ {
		e := New(Options{Workers: 4, MaxClosures: 64})
		var patterns []*graph.Graph
		rng := rand.New(rand.NewSource(int64(41 * (trial + 1))))
		sites := 2 + rng.Intn(2)
		for s := 0; s < sites; s++ {
			patterns = append(patterns, registerArchive(t, e,
				fmt.Sprintf("t%d-s%d", trial, s), cats[rng.Intn(len(cats))],
				int64(trial*100+s), 80+rng.Intn(60), 3+rng.Intn(3), 8))
		}
		ctx := context.Background()
		for s, pattern := range patterns {
			for _, algo := range []Algorithm{MaxSim, MaxCard} {
				// K stays within the site's own version count: beyond it
				// the brute-force tail is filled by near-zero-quality
				// graphs the prefilter legitimately pruned.
				base := SearchRequest{Pattern: pattern, Algo: algo, Xi: 0.75, Sim: SimContent, K: 3}

				brute := base
				brute.NoPrefilter = true
				want := e.Search(ctx, brute)
				if want.Err != nil {
					t.Fatal(want.Err)
				}
				if want.Stats.Matched != want.Stats.Graphs {
					t.Fatalf("brute force skipped graphs: %+v", want.Stats)
				}

				exact := base // MinResemblance 0 ⇒ order-only prefilter
				got := e.Search(ctx, exact)
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if !reflect.DeepEqual(hitNames(got), hitNames(want)) {
					t.Fatalf("trial %d site %d algo %s: exact-policy top-k %v != brute %v",
						trial, s, algo, hitNames(got), hitNames(want))
				}

				pruned := base
				pruned.MinResemblance = 0.1
				got = e.Search(ctx, pruned)
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if !reflect.DeepEqual(hitNames(got), hitNames(want)) {
					t.Fatalf("trial %d site %d algo %s: pruned top-k %v != brute %v",
						trial, s, algo, hitNames(got), hitNames(want))
				}
				// Repeat the pruned search: the ranking must be stable.
				again := e.Search(ctx, pruned)
				if !reflect.DeepEqual(hitNames(again), hitNames(got)) {
					t.Fatalf("ranking not deterministic: %v then %v", hitNames(got), hitNames(again))
				}
			}
		}
		e.Close()
	}
}

// TestSearchConcurrentChurn runs searches while other goroutines
// register, remove and patch graphs. Under -race this pins the
// coherence contract: no panic, hits only ever name graphs that were
// registered, and a graph removed before the search starts is never
// returned.
func TestSearchConcurrentChurn(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()

	stable := registerArchive(t, e, "stable", webgen.Organization, 7, 80, 2, 6)
	// A graph removed before any search starts must never appear.
	gone := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 1, Seed: 99}).Versions[0]
	if err := e.Register("gone", gone); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("gone"); err != nil {
		t.Fatal(err)
	}

	churnArch := webgen.Generate(webgen.Config{Category: webgen.Newspaper, Pages: 60, Versions: 1, Seed: 5}).Versions[0]
	patched := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 1, Seed: 11}).Versions[0]
	if err := e.Register("patched", patched); err != nil {
		t.Fatal(err)
	}
	const churners = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One patcher alternates edge-only and set_content patches on a
	// graph that stays registered throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g, err := e.Catalog().Get("patched")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.ApplyPatch("patched", randomSearchPatch(rng, g, i%2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%d", c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Register(name, churnArch)
				_ = e.Remove(name)
			}
		}(c)
	}

	valid := map[string]bool{"stable/v0": true, "stable/v1": true, "patched": true}
	for c := 0; c < churners; c++ {
		valid[fmt.Sprintf("churn-%d", c)] = true
	}
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		res := e.Search(ctx, SearchRequest{Pattern: stable, Algo: MaxSim, Xi: 0.75, Sim: SimContent, K: 10})
		if res.Err != nil {
			t.Fatalf("search %d: %v", i, res.Err)
		}
		for _, h := range res.Hits {
			if h.Graph == "gone" {
				t.Fatal("removed graph returned from search")
			}
			if !valid[h.Graph] {
				t.Fatalf("unknown hit %q", h.Graph)
			}
		}
		if len(res.Hits) == 0 || res.Hits[0].Graph != "stable/v0" {
			t.Fatalf("search %d: stable site not ranked first: %v", i, hitNames(res))
		}
	}
	close(stop)
	wg.Wait()
}

// randomSearchPatch builds a valid patch against g of one kind:
// 0 toggles one edge (edge-only), 1 rewrites one node's content from
// another node's text plus a word, 2 appends a node with content linked
// from an existing one.
func randomSearchPatch(rng *rand.Rand, g *graph.Graph, kind int) *graph.Patch {
	n := g.NumNodes()
	u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
	text := func() string {
		return fmt.Sprintf("%s extra%d", g.Content(graph.NodeID(rng.Intn(n))), rng.Intn(8))
	}
	switch kind {
	case 0:
		if g.HasEdge(u, v) {
			return &graph.Patch{DelEdges: [][2]graph.NodeID{{u, v}}}
		}
		return &graph.Patch{AddEdges: [][2]graph.NodeID{{u, v}}}
	case 1:
		return &graph.Patch{SetContent: []graph.ContentUpdate{{Node: u, Content: text()}}}
	default:
		return &graph.Patch{
			AddNodes: []graph.Node{{Label: g.Label(v), Weight: 1, Content: text()}},
			AddEdges: [][2]graph.NodeID{{u, graph.NodeID(n)}},
		}
	}
}

// TestSearchAfterPatchesEqualsFreshEngine pins search over patched
// graphs: after a seeded run of edge-only, set_content and add-node
// patches, interleaved with searches that rebuild stale summaries, an
// engine's hits must deep-equal those of a fresh engine that registered
// the final graphs — under the zero policy and under a pruning one.
func TestSearchAfterPatchesEqualsFreshEngine(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	var patterns []*graph.Graph
	for s, cat := range []webgen.Category{webgen.Store, webgen.Newspaper} {
		patterns = append(patterns, registerArchive(t, e, fmt.Sprintf("s%d", s), cat, int64(20+s), 50, 3, 6))
	}
	names := e.Catalog().Names()
	policies := []SearchRequest{
		{Algo: MaxSim, Xi: 0.5, Sim: SimContent, K: 4},
		{Algo: MaxSim, Xi: 0.5, Sim: SimContent, K: 4, MinResemblance: 0.1, MaxCandidates: 3},
	}
	search := func(e *Engine, pattern *graph.Graph, req SearchRequest) SearchResult {
		req.Pattern = pattern
		res := e.Search(context.Background(), req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 60; step++ {
		name := names[rng.Intn(len(names))]
		g, err := e.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyPatchCtx(ctx, name, randomSearchPatch(rng, g, rng.Intn(3))); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%5 == 0 {
			search(e, patterns[rng.Intn(len(patterns))], policies[rng.Intn(len(policies))])
		}
	}

	fresh := New(Options{Workers: 2})
	defer fresh.Close()
	for _, name := range names {
		g, err := e.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Register(name, g); err != nil {
			t.Fatal(err)
		}
	}
	for i, pattern := range patterns {
		for j, req := range policies {
			got, want := search(e, pattern, req), search(fresh, pattern, req)
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Fatalf("pattern %d policy %d: patched engine's hits diverge from a fresh engine's\n got %+v\nwant %+v", i, j, got.Hits, want.Hits)
			}
			if got.Stats.Candidates != want.Stats.Candidates || got.Stats.Pruned != want.Stats.Pruned {
				t.Fatalf("pattern %d policy %d: stage 1 diverges: %+v vs %+v", i, j, got.Stats, want.Stats)
			}
		}
	}
}

// TestSearchValidation pins the request-level failure modes.
func TestSearchValidation(t *testing.T) {
	e := New(Options{Workers: 2, ExactNodeLimit: 4})
	defer e.Close()
	ctx := context.Background()

	if res := e.Search(ctx, SearchRequest{}); res.Err == nil {
		t.Fatal("nil pattern accepted")
	}
	p := graph.FromEdgeList([]string{"a", "b"}, [][2]int{{0, 1}})
	if res := e.Search(ctx, SearchRequest{Pattern: p, Algo: "bogus"}); res.Err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if res := e.Search(ctx, SearchRequest{Pattern: p, Sim: "bogus"}); res.Err == nil {
		t.Fatal("bogus sim kind accepted")
	}
	big := graph.FromEdgeList([]string{"a", "b", "c", "d", "e"}, nil)
	if res := e.Search(ctx, SearchRequest{Pattern: big, Algo: Decide}); res.Err == nil {
		t.Fatal("oversized exact pattern accepted")
	}

	// An empty catalog searches cleanly to zero hits.
	res := e.Search(ctx, SearchRequest{Pattern: p})
	if res.Err != nil || len(res.Hits) != 0 || res.Stats.Graphs != 0 {
		t.Fatalf("empty-catalog search: %+v", res)
	}
	if got := e.Stats().Searches; got == 0 {
		t.Fatal("searches counter not incremented")
	}
}

// TestSearchRanksByAlgorithmMetric checks the primary rank key follows
// the algorithm: maxsim ranks by qualSim, maxcard by qualCard, and K
// truncates deterministically.
func TestSearchRanksByAlgorithmMetric(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	// One graph equals the pattern; the other shares only half the
	// labels, so its quality is strictly lower under either metric.
	full := graph.FromEdgeList([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	half := graph.FromEdgeList([]string{"a", "b", "x", "y"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err := e.Register("full", full); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("half", half); err != nil {
		t.Fatal(err)
	}
	pattern := graph.FromEdgeList([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})

	ctx := context.Background()
	for _, algo := range []Algorithm{MaxSim, MaxCard} {
		res := e.Search(ctx, SearchRequest{Pattern: pattern, Algo: algo, Xi: 1, K: 1})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Hits) != 1 || res.Hits[0].Graph != "full" {
			t.Fatalf("algo %s: hits %v", algo, hitNames(res))
		}
		if !res.Hits[0].Holds || res.Hits[0].Score != 1 {
			t.Fatalf("algo %s: hit %+v", algo, res.Hits[0])
		}
	}
}

// TestSearchBruteIgnoresEngineDefaults is the regression for the
// brute-force contract: NoPrefilter must match every registered graph
// even when the request itself asks for aggressive pruning.
func TestSearchBruteIgnoresEngineDefaults(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	for i := 0; i < 4; i++ {
		g := graph.FromEdgeList([]string{fmt.Sprintf("u%d", i), fmt.Sprintf("w%d", i)}, [][2]int{{0, 1}})
		if err := e.Register(fmt.Sprintf("g%d", i), g); err != nil {
			t.Fatal(err)
		}
	}
	pattern := graph.FromEdgeList([]string{"u2", "w2"}, [][2]int{{0, 1}})
	ctx := context.Background()

	pruning := SearchRequest{Pattern: pattern, Algo: MaxCard, Xi: 1, MaxCandidates: 1, MinResemblance: 0.99}
	bruteReq := pruning
	bruteReq.NoPrefilter = true
	brute := e.Search(ctx, bruteReq)
	if brute.Err != nil {
		t.Fatal(brute.Err)
	}
	if brute.Stats.Matched != 4 || brute.Stats.Pruned != 0 {
		t.Fatalf("brute stats %+v, want all 4 matched", brute.Stats)
	}
	if len(brute.Hits) == 0 || brute.Hits[0].Graph != "g2" {
		t.Fatalf("brute hits %v", hitNames(brute))
	}

	// The prefiltered path, by contrast, honours the request's bounds.
	pre := e.Search(ctx, pruning)
	if pre.Err != nil {
		t.Fatal(pre.Err)
	}
	if pre.Stats.Matched != 1 || pre.Stats.Pruned != 3 {
		t.Fatalf("prefiltered stats %+v, want 1 matched / 3 pruned", pre.Stats)
	}
	if len(pre.Hits) != 1 || pre.Hits[0].Graph != "g2" {
		t.Fatalf("prefiltered hits %v", hitNames(pre))
	}

	// Without bounds in the request, nothing is pruned: the engine adds
	// none of its own.
	all := e.Search(ctx, SearchRequest{Pattern: pattern, Algo: MaxCard, Xi: 1})
	if all.Err != nil {
		t.Fatal(all.Err)
	}
	if all.Stats.Matched != 4 || all.Stats.Pruned != 0 {
		t.Fatalf("unbounded stats %+v, want all 4 matched", all.Stats)
	}
}
