package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphmatch/internal/catalog"
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
		if err := e.Register(context.Background(), fmt.Sprintf("%s/v%d", prefix, v), g); err != nil {
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

// webFleet generates the catalog of the search and boot gates: 10
// webgen sites × 11 archived versions × 120 pages, named "siteSS/vVV",
// and per site the 12-hub skeleton of its oldest version as the query.
func webFleet() (names []string, graphs, patterns []*graph.Graph) {
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	for s := 0; s < 10; s++ {
		arch := webgen.Generate(webgen.Config{Category: cats[s%len(cats)], Pages: 120, Versions: 11, Seed: int64(1000 + s)})
		for v, g := range arch.Versions {
			names = append(names, fmt.Sprintf("site%02d/v%02d", s, v))
			graphs = append(graphs, g)
		}
		patterns = append(patterns, webgen.TopKSkeleton(arch.Versions[0], 12))
	}
	return names, graphs, patterns
}

// TestSearchPrunesWebFleet is the pruning gate at catalog scale: over
// the 110-graph fleet at MinResemblance 0.1, every ranking equals the
// full scan's, and summed over the queries stage 1 keeps and stage 2
// matches at most half the graphs the full scans match.
func TestSearchPrunesWebFleet(t *testing.T) {
	names, graphs, patterns := webFleet()
	e := New(Options{MaxClosures: len(graphs) + 8})
	defer e.Close()
	ctx := context.Background()
	for i, g := range graphs {
		if err := e.Register(ctx, names[i], g); err != nil {
			t.Fatal(err)
		}
	}
	var kept, matched, brute int
	for s, pattern := range patterns {
		req := SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: 0.75, Sim: SimContent, K: 5, MinResemblance: 0.1}
		got := e.Search(ctx, req)
		req.MinResemblance, req.NoPrefilter = 0, true
		want := e.Search(ctx, req)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("site %d: %v, full scan %v", s, got.Err, want.Err)
		}
		if !slices.Equal(hitNames(got), hitNames(want)) {
			t.Fatalf("site %d: pruned top-k %v != full scan %v", s, hitNames(got), hitNames(want))
		}
		kept += got.Stats.Candidates
		matched += got.Stats.Matched
		brute += want.Stats.Matched
	}
	t.Logf("%d queries: stage 1 kept %d graphs, stage 2 matched %d, the full scans %d (prune rate %.2f)",
		len(patterns), kept, matched, brute, 1-float64(matched)/float64(brute))
	if 2*kept > brute || 2*matched > brute {
		t.Fatalf("prefiltered searches kept %d and matched %d graphs, more than half of the full scans' %d", kept, matched, brute)
	}
}

// TestSearchEquivalenceQuickCheck is the search-vs-brute-force
// property: over random webgen catalogs, the top-k from the prefiltered
// path must equal an exhaustive scan that matches every registered
// graph — hit for hit, every match field included, under the no-pruning
// policy, where the prefilter only orders and bounds candidates and
// stage 2 stops once no bound can enter the top-k; and by name also under
// a real pruning threshold (pruned graphs score below the survivors).
// Every candidate is matched, skipped by the bound, or missing, and a
// search whose K covers every candidate skips none.
func TestSearchEquivalenceQuickCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("matcher-heavy quickcheck")
	}
	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	stops := 0
	for trial := 0; trial < 3; trial++ {
		e := New(Options{Workers: 4, MaxClosures: 64})
		var patterns []*graph.Graph
		var versions []int
		rng := rand.New(rand.NewSource(int64(41 * (trial + 1))))
		sites := 2 + rng.Intn(2)
		for s := 0; s < sites; s++ {
			versions = append(versions, 3+rng.Intn(3))
			patterns = append(patterns, registerArchive(t, e,
				fmt.Sprintf("t%d-s%d", trial, s), cats[rng.Intn(len(cats))],
				int64(trial*100+s), 80+rng.Intn(60), versions[s], 8))
		}
		ctx := context.Background()
		for s, pattern := range patterns {
			for _, algo := range []Algorithm{MaxSim, MaxCard} {
				for _, k := range []int{1, 3, 5, 100} {
					name := fmt.Sprintf("trial %d site %d algo %s K %d", trial, s, algo, k)
					base := SearchRequest{Pattern: pattern, Algo: algo, Xi: 0.75, Sim: SimContent, K: k}

					brute := base
					brute.NoPrefilter = true
					want := e.Search(ctx, brute)
					if want.Err != nil {
						t.Fatal(want.Err)
					}
					if want.Stats.Matched != want.Stats.Graphs || want.Stats.Skipped != 0 {
						t.Fatalf("%s: brute force skipped graphs: %+v", name, want.Stats)
					}

					exact := base // MinResemblance 0 ⇒ order-only prefilter
					got := e.Search(ctx, exact)
					if got.Err != nil {
						t.Fatal(got.Err)
					}
					// NoPrefilter computes no stage-1 scores; every other
					// field must agree.
					hits := slices.Clone(got.Hits)
					for i := range hits {
						hits[i].Containment, hits[i].Resemblance, hits[i].StructSim = 0, 0, 0
					}
					if !reflect.DeepEqual(hits, want.Hits) {
						t.Fatalf("%s: exact-policy hits\n%+v\n!= brute\n%+v", name, hits, want.Hits)
					}
					st := got.Stats
					if st.Matched+st.Skipped+st.Missing != st.Candidates {
						t.Fatalf("%s: matched %d + skipped %d + missing %d != %d candidates", name, st.Matched, st.Skipped, st.Missing, st.Candidates)
					}
					if k >= st.Candidates && st.Matched != st.Candidates {
						t.Fatalf("%s: K covers all %d candidates, yet %d matched", name, st.Candidates, st.Matched)
					}
					if st.Matched < st.Candidates {
						stops++
					}
					if again := e.Search(ctx, exact); again.Stats.Matched != st.Matched || !reflect.DeepEqual(again.Hits, got.Hits) {
						t.Fatalf("%s: repeated search matched %d then %d", name, st.Matched, again.Stats.Matched)
					}

					// K stays within the site's own version count here:
					// beyond it the brute-force tail is filled by
					// near-zero-quality graphs the prefilter legitimately
					// pruned.
					if k > versions[s] {
						continue
					}
					pruned := base
					pruned.MinResemblance = 0.1
					got = e.Search(ctx, pruned)
					if got.Err != nil {
						t.Fatal(got.Err)
					}
					if !reflect.DeepEqual(hitNames(got), hitNames(want)) {
						t.Fatalf("%s: pruned top-k %v != brute %v", name, hitNames(got), hitNames(want))
					}
					// Repeat the pruned search: the ranking must be stable.
					again := e.Search(ctx, pruned)
					if !reflect.DeepEqual(hitNames(again), hitNames(got)) {
						t.Fatalf("ranking not deterministic: %v then %v", hitNames(got), hitNames(again))
					}
				}
			}
		}
		e.Close()
	}
	if stops == 0 {
		t.Fatal("no search stopped before its last candidate: the stop rule went unexercised")
	}
	t.Logf("%d searches stopped early", stops)
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
	if err := e.Register(context.Background(), "gone", gone); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(context.Background(), "gone"); err != nil {
		t.Fatal(err)
	}

	churnArch := webgen.Generate(webgen.Config{Category: webgen.Newspaper, Pages: 60, Versions: 1, Seed: 5}).Versions[0]
	patched := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 1, Seed: 11}).Versions[0]
	if err := e.Register(context.Background(), "patched", patched); err != nil {
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
			res, err := e.Catalog().Resolve(context.Background(), "patched", 0, catalog.NeedGraph)
			g := res.Graph
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.ApplyPatch(context.Background(), "patched", randomSearchPatch(rng, g, i%2)); err != nil {
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
				_ = e.Register(context.Background(), name, churnArch)
				_ = e.Remove(context.Background(), name)
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
		res, err := e.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		g := res.Graph
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyPatch(ctx, name, randomSearchPatch(rng, g, rng.Intn(3))); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%5 == 0 {
			search(e, patterns[rng.Intn(len(patterns))], policies[rng.Intn(len(policies))])
		}
	}

	fresh := New(Options{Workers: 2})
	defer fresh.Close()
	for _, name := range names {
		res, err := e.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		g := res.Graph
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Register(context.Background(), name, g); err != nil {
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
	if err := e.Register(context.Background(), "full", full); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(context.Background(), "half", half); err != nil {
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
		if err := e.Register(context.Background(), fmt.Sprintf("g%d", i), g); err != nil {
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

// TestSearchServedUnderDefaultAdmission: with the server's admission
// bound (queue + workers), an idle engine serves a search with three
// times that many candidates, sheds nothing and matches them all. A
// search is admitted once and feeds its tasks through a window of
// Workers; submitting its whole fan-out at once would overrun the bound
// while the slowed workers drain it.
func TestSearchServedUnderDefaultAdmission(t *testing.T) {
	e := New(Options{Workers: 2, MaxPending: -1})
	defer e.Close()
	bound := e.Stats().MaxPending
	n := 3 * bound
	for i := 0; i < n; i++ {
		g := graph.FromEdgeList([]string{"home", "news", fmt.Sprintf("page%d", i)}, [][2]int{{0, 1}, {1, 2}})
		if err := e.Register(context.Background(), fmt.Sprintf("g%02d", i), g); err != nil {
			t.Fatal(err)
		}
	}
	e.beforeExecute = func() { time.Sleep(time.Millisecond) }
	pattern := graph.FromEdgeList([]string{"home", "news"}, [][2]int{{0, 1}})
	res := e.Search(context.Background(), SearchRequest{Pattern: pattern, Algo: MaxCard, Xi: 1, K: 5})
	if res.Err != nil {
		t.Fatalf("search over %d candidates with admission bound %d: %v", n, bound, res.Err)
	}
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("%d tasks shed", st.Shed)
	}
	if res.Stats.Candidates != n || res.Stats.Matched != n || len(res.Hits) != 5 {
		t.Fatalf("stats %+v, %d hits; want all %d candidates matched and 5 hits", res.Stats, len(res.Hits), n)
	}
}

// TestSearchWindowDelayedSignal: with one worker that yields between
// storing a task's result and reporting it, a bounded search still
// returns the hits of an unhooked full scan, every field included, and
// counts no error. Stage 2 folds a candidate only once its own task has
// reported, so a late report only delays the fold.
func TestSearchWindowDelayedSignal(t *testing.T) {
	ref := New(Options{Workers: 2})
	defer ref.Close()
	e := New(Options{Workers: 1})
	defer e.Close()
	e.afterExecute = func() {
		runtime.Gosched()
		time.Sleep(20 * time.Microsecond)
	}
	var patterns []*graph.Graph
	for s, cat := range []webgen.Category{webgen.Store, webgen.Newspaper} {
		registerArchive(t, ref, fmt.Sprintf("s%d", s), cat, int64(70+s), 80, 4, 8)
		patterns = append(patterns, registerArchive(t, e, fmt.Sprintf("s%d", s), cat, int64(70+s), 80, 4, 8))
	}
	ctx := context.Background()
	stops := 0
	for _, pattern := range patterns {
		for _, k := range []int{1, 3} {
			req := SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: 0.75, Sim: SimContent, K: k}
			brute := req
			brute.NoPrefilter = true
			want := ref.Search(ctx, brute)
			got := e.Search(ctx, req)
			if want.Err != nil || got.Err != nil {
				t.Fatalf("K %d: errors %v, %v", k, want.Err, got.Err)
			}
			for i := range got.Hits {
				got.Hits[i].Containment, got.Hits[i].Resemblance, got.Hits[i].StructSim = 0, 0, 0
			}
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Fatalf("K %d: hits\n%+v\n!= full scan\n%+v", k, got.Hits, want.Hits)
			}
			if st := got.Stats; st.Matched+st.Skipped+st.Missing != st.Candidates {
				t.Fatalf("K %d: stats %+v do not add up", k, st)
			}
			if got.Stats.Skipped > 0 {
				stops++
			}
		}
	}
	if stops == 0 {
		t.Fatal("no search stopped early: the window never had a task past the stop")
	}
	if n := e.Stats().Errors; n != 0 {
		t.Fatalf("%d errors counted", n)
	}
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 0 })
}

// TestSearchWindowsStayWithinAdmission: concurrent searches reserve
// their windows against the admission bound, so the pending count —
// which bounds the tasks queued or running — never exceeds it, each
// search either runs whole or is shed whole, and every reserved slot
// is given back. A second burst runs batches beside the searches under
// the same bound: each batch, too, is served whole or shed whole.
func TestSearchWindowsStayWithinAdmission(t *testing.T) {
	e := New(Options{Workers: 2, QueueDepth: 2, MaxPending: -1})
	defer e.Close()
	bound := int64(e.Stats().MaxPending)
	for i := 0; i < 12; i++ {
		g := graph.FromEdgeList([]string{"home", "news", fmt.Sprintf("page%d", i)}, [][2]int{{0, 1}, {1, 2}})
		if err := e.Register(context.Background(), fmt.Sprintf("g%02d", i), g); err != nil {
			t.Fatal(err)
		}
	}
	var peak atomic.Int64
	e.beforeExecute = func() {
		n := e.pending.Load()
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
	}
	pattern := graph.FromEdgeList([]string{"home", "news"}, [][2]int{{0, 1}})
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	searches := func() {
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 5 {
					res := e.Search(context.Background(), SearchRequest{Pattern: pattern, Algo: MaxCard, Xi: 1, K: 12})
					switch {
					case res.Err == nil && res.Stats.Matched == 12:
						served.Add(1)
					case errors.Is(res.Err, ErrOverloaded) && res.Stats.Matched == 0:
						shed.Add(1)
					default:
						t.Errorf("search: %v, stats %+v", res.Err, res.Stats)
					}
				}
			}()
		}
	}
	searches()
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("pending peaked at %d, above the admission bound %d", p, bound)
	}
	if served.Load() == 0 {
		t.Fatal("no search served")
	}
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 0 })
	t.Logf("%d served, %d shed, pending peak %d of %d", served.Load(), shed.Load(), peak.Load(), bound)

	// Mixed burst: the same searches beside concurrent batches.
	served.Store(0)
	shed.Store(0)
	batch := make([]Request, 12)
	for i := range batch {
		batch[i] = Request{Pattern: pattern, GraphName: fmt.Sprintf("g%02d", i), Algo: MaxCard, Xi: 1}
	}
	var batchesServed, batchesShed atomic.Int64
	searches()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				res := e.MatchBatch(context.Background(), batch)
				n := 0
				for _, r := range res {
					if errors.Is(r.Err, ErrOverloaded) {
						n++
					} else if r.Err != nil {
						t.Errorf("batch item: %v", r.Err)
					}
				}
				switch n {
				case 0:
					batchesServed.Add(1)
				case len(res):
					batchesShed.Add(1)
				default:
					t.Errorf("batch shed part-way: %d of %d items", n, len(res))
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("pending peaked at %d, above the admission bound %d", p, bound)
	}
	if served.Load()+batchesServed.Load() == 0 {
		t.Fatal("mixed burst: no search and no batch served")
	}
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 0 })
	t.Logf("mixed: searches %d served, %d shed; batches %d served, %d shed; pending peak %d of %d",
		served.Load(), shed.Load(), batchesServed.Load(), batchesShed.Load(), peak.Load(), bound)
}

// TestSearchIndexBytesReported: Stats reports what the stage-1 postings
// hold — nothing before the first search, a non-zero size after it, and
// nothing again once every graph is removed and a search has run.
func TestSearchIndexBytesReported(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	pattern := registerArchive(t, e, "site", webgen.Organization, 3, 30, 2, 5)
	if got := e.Stats().SearchIndexBytes; got != 0 {
		t.Fatalf("before any search: %d bytes", got)
	}
	if res := e.Search(context.Background(), SearchRequest{Pattern: pattern, K: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := e.Stats().SearchIndexBytes; got <= 0 {
		t.Fatalf("after a search: %d bytes", got)
	}
	for v := range 2 {
		if err := e.Remove(context.Background(), fmt.Sprintf("site/v%d", v)); err != nil {
			t.Fatal(err)
		}
	}
	if res := e.Search(context.Background(), SearchRequest{Pattern: pattern, K: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := e.Stats().SearchIndexBytes; got != 0 {
		t.Fatalf("every graph removed and searched: %d bytes", got)
	}
}
