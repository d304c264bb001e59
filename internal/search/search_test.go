package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
)

// contentGraph builds a tiny graph whose nodes carry the given texts
// as content (one node per text, chained by edges so degrees are
// non-trivial).
func contentGraph(texts ...string) *graph.Graph {
	g := graph.New(len(texts))
	for i, txt := range texts {
		g.AddNodeFull(graph.Node{Label: fmt.Sprintf("n%d", i), Weight: 1, Content: txt})
	}
	for i := 1; i < len(texts); i++ {
		g.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	g.Finish()
	return g
}

func TestSignatureOf(t *testing.T) {
	g := contentGraph("a b c d", "e f g h", "i j k l")
	sig := SignatureOf(g)
	if sig.Nodes != 3 || sig.Edges != 2 {
		t.Fatalf("sig = %+v", sig)
	}
	total := 0.0
	for _, f := range sig.DegHist {
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("histogram sums to %v, want 1", total)
	}
	if got := sig.StructSim(sig); got != 1 {
		t.Fatalf("self StructSim = %v, want 1", got)
	}
	empty := SignatureOf(graph.New(0))
	if empty.Nodes != 0 {
		t.Fatalf("empty signature = %+v", empty)
	}
	// Disjoint histograms score 0; an empty graph's zero histogram
	// against a real one stays within [0, 1].
	if s := empty.StructSim(sig); s < 0 || s > 1 {
		t.Fatalf("empty-vs-real StructSim = %v outside [0,1]", s)
	}
}

func TestSummarizeExactWhenSmall(t *testing.T) {
	g := contentGraph(
		"alpha beta gamma delta epsilon zeta",
		"alpha beta gamma delta theta iota",
	)
	sum := Summarize(g)
	if sum.Total != len(sum.Hashes) {
		t.Fatalf("small graph sampled: total %d, hashes %d", sum.Total, len(sum.Hashes))
	}
	if sum.Total == 0 {
		t.Fatal("no shingles extracted")
	}
	if rate := sum.sampleRate(); rate != 1 {
		t.Fatalf("sampleRate = %v, want 1", rate)
	}
	for i := 1; i < len(sum.Hashes); i++ {
		if sum.Hashes[i-1] >= sum.Hashes[i] {
			t.Fatal("hashes not sorted distinct")
		}
	}
}

// TestScoreContentEdgeCases pins the divide-by-zero guards: empty
// pattern, empty graph, both empty — mirroring the shingle package's
// Resemblance/Containment conventions.
func TestScoreContentEdgeCases(t *testing.T) {
	empty := Summary{}
	full := Summarize(contentGraph("some words to shingle here now"))
	if c, r := scoreContent(empty, empty, 0); c != 1 || r != 1 {
		t.Fatalf("empty/empty = %v, %v; want 1, 1", c, r)
	}
	if c, r := scoreContent(empty, full, 0); c != 1 || r != 0 {
		t.Fatalf("empty pattern = %v, %v; want 1, 0", c, r)
	}
	if c, r := scoreContent(full, empty, 0); c != 0 || r != 0 {
		t.Fatalf("empty graph = %v, %v; want 0, 0", c, r)
	}
	if c, r := scoreContent(full, full, len(full.Hashes)); c != 1 || r != 1 {
		t.Fatalf("self = %v, %v; want 1, 1", c, r)
	}
	// Overlap beyond the smaller set is clamped, never above 1.
	if c, r := scoreContent(full, full, 10*len(full.Hashes)); c > 1 || r > 1 {
		t.Fatalf("clamped = %v, %v; want ≤ 1", c, r)
	}
}

func newIndexOver(t *testing.T, graphs map[string]*graph.Graph) (*catalog.Catalog, *Index) {
	t.Helper()
	cat := catalog.New(0)
	for name, g := range graphs {
		if err := cat.Register(name, g); err != nil {
			t.Fatal(err)
		}
	}
	return cat, NewIndex(cat)
}

func TestCandidatesContainmentExact(t *testing.T) {
	shared := "the quick brown fox jumps over the lazy dog again and again"
	_, ix := newIndexOver(t, map[string]*graph.Graph{
		"same":  contentGraph(shared),
		"half":  contentGraph(shared + " with entirely different trailing words appended here making overlap partial"),
		"other": contentGraph("completely unrelated text about graph homomorphism and matching"),
	})
	q := Summarize(contentGraph(shared))
	cands, stats := ix.Candidates(q, Policy{})
	if stats.Graphs != 3 || len(cands) != 3 {
		t.Fatalf("stats %+v, %d candidates", stats, len(cands))
	}
	byName := map[string]Candidate{}
	for _, c := range cands {
		byName[c.Name] = c
	}
	if c := byName["same"]; c.Containment != 1 {
		t.Fatalf("same containment = %v, want 1", c.Containment)
	}
	if c := byName["half"]; c.Containment != 1 {
		// All pattern shingles appear in "half" (it extends the text).
		t.Fatalf("half containment = %v, want 1", c.Containment)
	}
	if c := byName["other"]; c.Containment != 0 {
		t.Fatalf("other containment = %v, want 0", c.Containment)
	}
	if byName["same"].Resemblance <= byName["half"].Resemblance {
		t.Fatal("resemblance should prefer the identical graph over the superset")
	}
	if cands[len(cands)-1].Name != "other" {
		t.Fatalf("worst candidate = %q, want other", cands[len(cands)-1].Name)
	}
}

func TestCandidatesPruning(t *testing.T) {
	shared := "one two three four five six seven eight nine ten"
	_, ix := newIndexOver(t, map[string]*graph.Graph{
		"hit":  contentGraph(shared),
		"miss": contentGraph("unrelated content entirely disjoint from the query text here"),
	})
	q := Summarize(contentGraph(shared))

	cands, stats := ix.Candidates(q, Policy{MinResemblance: 0.5})
	if len(cands) != 1 || cands[0].Name != "hit" || stats.PrunedScore != 1 {
		t.Fatalf("cands %v, stats %+v", cands, stats)
	}

	// MinResemblance 0 keeps everything — the equivalence guarantee.
	cands, stats = ix.Candidates(q, Policy{})
	if len(cands) != 2 || stats.PrunedScore != 0 {
		t.Fatalf("exact policy pruned: %v, %+v", cands, stats)
	}

	cands, stats = ix.Candidates(q, Policy{MaxCandidates: 1})
	if len(cands) != 1 || cands[0].Name != "hit" || stats.PrunedCap != 1 {
		t.Fatalf("cap: cands %v, stats %+v", cands, stats)
	}

	cands, _ = ix.Candidates(q, Policy{Brute: true})
	if len(cands) != 2 || cands[0].Name != "hit" || cands[1].Name != "miss" {
		t.Fatalf("brute order: %v", cands)
	}
}

// TestIndexCoherence drives Register/Remove through the catalog and
// checks the index tracks them: removed graphs disappear, re-registered
// names serve the new graph.
func TestIndexCoherence(t *testing.T) {
	cat, ix := newIndexOver(t, map[string]*graph.Graph{
		"a": contentGraph("text of graph a which stays registered throughout"),
		"b": contentGraph("text of graph b which will be removed midway"),
	})
	q := Summarize(contentGraph("text of graph b which will be removed midway"))
	cands, _ := ix.Candidates(q, Policy{MinResemblance: 0.5})
	if len(cands) != 1 || cands[0].Name != "b" {
		t.Fatalf("before remove: %v", cands)
	}
	if err := cat.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatalf("index holds %d records after remove, want 1", ix.Len())
	}
	cands, stats := ix.Candidates(q, Policy{MinResemblance: 0.5})
	if len(cands) != 0 {
		t.Fatalf("after remove: %v", cands)
	}
	if stats.Graphs != 1 {
		t.Fatalf("stats.Graphs = %d, want 1", stats.Graphs)
	}
	// Re-register the name with different content: the index must serve
	// the new graph, not the stale postings.
	if err := cat.Register("b", contentGraph("completely new content for the reused name")); err != nil {
		t.Fatal(err)
	}
	cands, _ = ix.Candidates(q, Policy{MinResemblance: 0.5})
	if len(cands) != 0 {
		t.Fatalf("stale postings survived re-register: %v", cands)
	}
	q2 := Summarize(contentGraph("completely new content for the reused name"))
	cands, _ = ix.Candidates(q2, Policy{MinResemblance: 0.5})
	if len(cands) != 1 || cands[0].Name != "b" {
		t.Fatalf("new content not indexed: %v", cands)
	}
}

// TestIndexAttachesToPopulatedCatalog checks the hook replay: an index
// created after graphs were registered still sees them.
func TestIndexAttachesToPopulatedCatalog(t *testing.T) {
	cat := catalog.New(0)
	if err := cat.Register("pre", contentGraph("registered before the index existed")); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(cat)
	if ix.Len() != 1 {
		t.Fatalf("index missed the pre-registered graph: len %d", ix.Len())
	}
	cands, _ := ix.Candidates(Summarize(contentGraph("registered before the index existed")), Policy{MinResemblance: 0.5})
	if len(cands) != 1 || cands[0].Name != "pre" {
		t.Fatalf("candidates %v", cands)
	}
}

// TestIndexConcurrentChurn hammers the index with concurrent catalog
// mutations and searches; run under -race this pins the locking
// protocol (hook under the catalog lock, summaries built outside,
// commits re-validated).
func TestIndexConcurrentChurn(t *testing.T) {
	cat, ix := newIndexOver(t, map[string]*graph.Graph{
		"stable": contentGraph("stable graph text that never goes away during the churn"),
	})
	q := Summarize(contentGraph("stable graph text that never goes away during the churn"))

	const churners = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			name := fmt.Sprintf("churn-%d", c)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := contentGraph(fmt.Sprintf("churning content %d %d %s", c, i, "filler words to shingle"))
				_ = cat.Register(name, g)
				if rng.Intn(4) > 0 { // leave the name registered now and then
					_ = cat.Remove(name)
				}
			}
		}(c)
	}
	valid := map[string]bool{"stable": true}
	for c := 0; c < churners; c++ {
		valid[fmt.Sprintf("churn-%d", c)] = true
	}
	for i := 0; i < 200; i++ {
		cands, _ := ix.Candidates(q, Policy{})
		found := false
		for _, cand := range cands {
			if !valid[cand.Name] {
				t.Errorf("unknown candidate %q", cand.Name)
			}
			if cand.Name == "stable" {
				found = true
			}
		}
		if !found {
			t.Error("stable graph missing from candidates")
		}
	}
	close(stop)
	wg.Wait()
	// Drain the churned names; only the stable graph must remain.
	for c := 0; c < churners; c++ {
		_ = cat.Remove(fmt.Sprintf("churn-%d", c))
	}
	cands, stats := ix.Candidates(q, Policy{})
	if stats.Graphs != 1 || len(cands) != 1 || cands[0].Name != "stable" {
		t.Fatalf("after churn: cands %v, stats %+v", cands, stats)
	}
}

// randomSearchPatch builds a valid non-empty patch against g: random
// node additions (with content), content rewrites, deletes of distinct
// existing edges, and random edge additions.
func randomSearchPatch(rng *rand.Rand, g *graph.Graph, words []string) *graph.Patch {
	text := func() string {
		n := 2 + rng.Intn(5)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	for {
		p := &graph.Patch{}
		for i := 0; i < rng.Intn(3); i++ {
			p.AddNodes = append(p.AddNodes, graph.Node{Label: fmt.Sprintf("n%d", rng.Intn(100)), Weight: 1, Content: text()})
		}
		total := g.NumNodes() + len(p.AddNodes)
		for i := 0; i < rng.Intn(3); i++ {
			p.SetContent = append(p.SetContent, graph.ContentUpdate{
				Node:    graph.NodeID(rng.Intn(total)),
				Content: text(),
			})
		}
		var existing [][2]graph.NodeID
		g.Edges(func(from, to graph.NodeID) bool {
			existing = append(existing, [2]graph.NodeID{from, to})
			return true
		})
		seen := map[[2]graph.NodeID]bool{}
		for i := 0; i < rng.Intn(3) && len(existing) > 0; i++ {
			e := existing[rng.Intn(len(existing))]
			if !seen[e] {
				seen[e] = true
				p.DelEdges = append(p.DelEdges, e)
			}
		}
		for i := 0; i < rng.Intn(4); i++ {
			e := [2]graph.NodeID{graph.NodeID(rng.Intn(total)), graph.NodeID(rng.Intn(total))}
			if !seen[e] {
				p.AddEdges = append(p.AddEdges, e)
			}
		}
		if !p.Empty() {
			return p
		}
	}
}

// TestIndexPatchEquivalence is the incremental-maintenance quickcheck:
// after every committed patch, candidate scoring through the live index
// (folded deltas, diffed postings) must be bit-identical to a fresh
// index built over the same graphs from scratch. Covers edge-only
// patches (shared hash sample), content rewrites, node growth, and
// mixed sequences.
func TestIndexPatchEquivalence(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	names := []string{"g0", "g1", "g2"}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		text := func() string {
			parts := make([]string, 3+rng.Intn(6))
			for i := range parts {
				parts[i] = words[rng.Intn(len(words))]
			}
			return strings.Join(parts, " ")
		}
		cat := catalog.New(0)
		ix := NewIndex(cat)
		for _, name := range names {
			if err := cat.Register(name, contentGraph(text(), text(), text())); err != nil {
				t.Fatal(err)
			}
		}
		query := Summarize(contentGraph(text(), text()))
		ix.Candidates(query, Policy{}) // force the initial builds so later folds are incremental

		for step := 0; step < 6; step++ {
			name := names[rng.Intn(len(names))]
			g, err := cat.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cat.Apply(name, randomSearchPatch(rng, g, words)); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}

			got, gotStats := ix.Candidates(query, Policy{})

			fresh := catalog.New(0)
			for _, n := range names {
				cur, err := cat.Get(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Register(n, cur); err != nil {
					t.Fatal(err)
				}
			}
			want, wantStats := NewIndex(fresh).Candidates(query, Policy{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: incremental candidates diverge\n got %+v\nwant %+v", trial, step, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("trial %d step %d: stats diverge: %+v vs %+v", trial, step, gotStats, wantStats)
			}
		}
	}
}

// TestIndexEdgeOnlyPatchSharesHashes pins the cheap path: a patch that
// touches no content must leave the hash sample (and hence postings)
// physically shared, shifting only the structural signature.
func TestIndexEdgeOnlyPatchSharesHashes(t *testing.T) {
	cat := catalog.New(0)
	ix := NewIndex(cat)
	if err := cat.Register("g", contentGraph("some shared words", "more shared words", "yet more text")); err != nil {
		t.Fatal(err)
	}
	q := Summarize(contentGraph("some shared words"))
	ix.Candidates(q, Policy{})

	ix.mu.Lock()
	before := ix.recs["g"].sum
	ix.mu.Unlock()

	if _, err := cat.Apply("g", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 2}}}); err != nil {
		t.Fatal(err)
	}
	cands, _ := ix.Candidates(q, Policy{})
	if len(cands) != 1 {
		t.Fatalf("candidates %v", cands)
	}

	ix.mu.Lock()
	after := ix.recs["g"].sum
	ix.mu.Unlock()
	if len(before.Hashes) == 0 || &before.Hashes[0] != &after.Hashes[0] {
		t.Fatal("edge-only patch rebuilt the hash sample instead of sharing it")
	}
	if before.Sig == after.Sig {
		t.Fatal("edge patch left the structural signature unchanged")
	}
}

func TestTopKDeterministic(t *testing.T) {
	// Push the same hits in two different orders; the ranking must not
	// change, and ties must break by name.
	hits := []Hit{
		{Name: "c", Score: 0.5, Tie: 0.1},
		{Name: "a", Score: 0.9, Tie: 0.2},
		{Name: "b", Score: 0.9, Tie: 0.2},
		{Name: "d", Score: 0.5, Tie: 0.3},
		{Name: "e", Score: 0.1},
	}
	want := []string{"a", "b", "d"}
	for perm := 0; perm < 10; perm++ {
		rng := rand.New(rand.NewSource(int64(perm)))
		shuffled := append([]Hit(nil), hits...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		top := NewTopK(3)
		for _, h := range shuffled {
			top.Push(h)
		}
		var got []string
		for _, h := range top.Ranked() {
			got = append(got, h.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("perm %d: ranked %v, want %v", perm, got, want)
		}
	}
}

func TestTopKUnbounded(t *testing.T) {
	top := NewTopK(0)
	for i := 0; i < 20; i++ {
		top.Push(Hit{Name: fmt.Sprintf("g%02d", i), Score: float64(i)})
	}
	ranked := top.Ranked()
	if len(ranked) != 20 {
		t.Fatalf("unbounded fold kept %d", len(ranked))
	}
	if ranked[0].Name != "g19" || ranked[19].Name != "g00" {
		t.Fatalf("order: first %q last %q", ranked[0].Name, ranked[19].Name)
	}
}

// TestIndexLongPatchRuns drives one graph through runs of patches far
// longer than the delta queue — never searched, searched once before
// the run, and searched every few patches — and requires what the index
// then serves to deep-equal a fresh Summarize of the final graph, with
// the queue bounded all along and nothing queued for a graph nobody has
// searched.
func TestIndexLongPatchRuns(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for _, tc := range []struct {
		name        string
		searchFirst bool
		searchEvery int
	}{
		{name: "never searched"},
		{name: "searched once", searchFirst: true},
		{name: "interleaved", searchFirst: true, searchEvery: 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			cat := catalog.New(0)
			ix := NewIndex(cat)
			if err := cat.Register("g", contentGraph("alpha beta gamma", "delta epsilon zeta", "eta theta alpha")); err != nil {
				t.Fatal(err)
			}
			query := Summarize(contentGraph("alpha beta"))
			if tc.searchFirst {
				ix.Candidates(query, Policy{})
			}
			for step := 1; step <= 5*maxPendingDeltas; step++ {
				g, err := cat.Get("g")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cat.Apply("g", randomSearchPatch(rng, g, words)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				switch queued := ix.PendingDeltas(); {
				case !tc.searchFirst && queued != 0:
					t.Fatalf("step %d: %d deltas queued for a graph that was never searched", step, queued)
				case queued > maxPendingDeltas:
					t.Fatalf("step %d: %d deltas queued, bound %d", step, queued, maxPendingDeltas)
				}
				if tc.searchEvery > 0 && step%tc.searchEvery == 0 {
					ix.Candidates(query, Policy{})
				}
			}
			ix.Candidates(query, Policy{}) // fold whatever is left
			g, err := cat.Get("g")
			if err != nil {
				t.Fatal(err)
			}
			ix.mu.Lock()
			got, queued := ix.recs["g"].sum, ix.pending
			ix.mu.Unlock()
			if want := Summarize(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("summary after the run diverges from a fresh Summarize\n got %+v\nwant %+v", got, want)
			}
			if queued != 0 {
				t.Fatalf("%d deltas still queued after a search", queued)
			}
		})
	}
}
