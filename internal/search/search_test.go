package search

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/webgen"
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

// TestIndexAttachesToPopulatedCatalog checks that an index created
// after graphs were registered still sees them.
func TestIndexAttachesToPopulatedCatalog(t *testing.T) {
	cat := catalog.New(0)
	if err := cat.Register("pre", contentGraph("registered before the index existed")); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(cat)
	cands, stats := ix.Candidates(Summarize(contentGraph("registered before the index existed")), Policy{MinResemblance: 0.5})
	if stats.Graphs != 1 {
		t.Fatalf("index missed the pre-registered graph: stats %+v", stats)
	}
	if len(cands) != 1 || cands[0].Name != "pre" {
		t.Fatalf("candidates %v", cands)
	}
}

// scoring returns s without the counts of postings installed and
// dropped, which depend on what the index held before the query: the
// part of the stats a fresh index over the same graphs must equal.
func scoring(s Stats) Stats {
	s.Installed, s.Dropped = 0, 0
	return s
}

// rankedNames returns the names ix ranks for q under the zero policy,
// sorted.
func rankedNames(ix *Index, q Summary) []string {
	cands, _ := ix.Candidates(q, Policy{})
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// TestIndexesShareCatalog builds two indexes over one catalog: after
// every Register, Remove and Apply both must rank exactly the current
// registry, and score it as a fresh index over the same graphs does.
func TestIndexesShareCatalog(t *testing.T) {
	cat, first := newIndexOver(t, map[string]*graph.Graph{
		"a": contentGraph("graph a text that stays registered for the whole test"),
		"b": contentGraph("graph b text that is removed half way through"),
	})
	q := Summarize(contentGraph("graph b text that is removed half way through"))
	first.Candidates(q, Policy{})
	second := NewIndex(cat)
	second.Candidates(q, Policy{})

	check := func(step string, want ...string) {
		t.Helper()
		fresh := catalog.New(0)
		for name, g := range cat.Export(nil) {
			if err := fresh.Register(name, g); err != nil {
				t.Fatal(err)
			}
		}
		wantCands, wantStats := NewIndex(fresh).Candidates(q, Policy{})
		for i, ix := range []*Index{first, second} {
			if got := rankedNames(ix, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: index %d ranks %v, want %v", step, i, got, want)
			}
			cands, stats := ix.Candidates(q, Policy{})
			if !reflect.DeepEqual(cands, wantCands) || scoring(stats) != scoring(wantStats) {
				t.Fatalf("%s: index %d scores %+v %+v, want %+v %+v", step, i, cands, stats, wantCands, wantStats)
			}
		}
	}
	if err := cat.Register("c", contentGraph("graph c text registered after both indexes")); err != nil {
		t.Fatal(err)
	}
	check("register", "a", "b", "c")
	if err := cat.Remove("b"); err != nil {
		t.Fatal(err)
	}
	check("remove", "a", "c")
	if _, err := cat.Apply("a", &graph.Patch{SetContent: []graph.ContentUpdate{{Node: 0, Content: "graph b text that is removed half way through"}}}); err != nil {
		t.Fatal(err)
	}
	check("apply", "a", "c")
}

// TestIndexFollowsReplace covers the follower bootstrap path: an index
// built before Catalog.Replace must afterwards rank exactly the new
// registry, never an old name, and must score a reused name by its new
// content.
func TestIndexFollowsReplace(t *testing.T) {
	oldText := "old content of the reused name before the replace"
	newText := "new content of the reused name after the replace"
	cat, ix := newIndexOver(t, map[string]*graph.Graph{
		"gone":   contentGraph("a graph only the old registry holds"),
		"reused": contentGraph(oldText),
	})
	qOld, qNew := Summarize(contentGraph(oldText)), Summarize(contentGraph(newText))
	if cands, _ := ix.Candidates(qOld, Policy{MinResemblance: 0.5}); len(cands) != 1 || cands[0].Name != "reused" {
		t.Fatalf("before replace: %v", cands)
	}
	if err := cat.Replace(map[string]*graph.Graph{
		"reused": contentGraph(newText),
		"added":  contentGraph("a graph only the new registry holds"),
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := rankedNames(ix, qOld), []string{"added", "reused"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after replace: ranks %v, want %v", got, want)
	}
	if cands, _ := ix.Candidates(qOld, Policy{MinResemblance: 0.5}); len(cands) != 0 {
		t.Fatalf("old content of the reused name still matches: %v", cands)
	}
	if cands, _ := ix.Candidates(qNew, Policy{MinResemblance: 0.5}); len(cands) != 1 || cands[0].Name != "reused" {
		t.Fatalf("new content of the reused name not indexed: %v", cands)
	}
}

// TestIndexConcurrentChurn hammers the index with concurrent catalog
// mutations and searches; run under -race this pins the locking
// protocol (one registry read, summaries built outside the index lock,
// installed in one hold).
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
// after every step of random patches, removals and re-registrations,
// several of them between two searches, the live index (version-keyed
// records, spliced postings, freed and reused slots) must score every
// registered graph as a naive reference over the graphs' own shingle
// sets does, field by field, and bit-identically to a fresh index built
// over the same graphs. Covers edge-only patches (shared hash sample),
// content rewrites, node growth, and several versions sharing a hash
// changing in one call.
func TestIndexPatchEquivalence(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	names := []string{"g0", "g1", "g2", "g3"}
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
		pg := contentGraph(text(), text(), text())
		p := simmatrix.NewContentPattern(pg, 0)
		query := SummaryOf(pg, p.Shingles())
		if trial%2 == 1 {
			query.Nodes = p // count per pattern node too
		}
		// posted records what the index was last seen to post per name.
		posted := map[string][]uint64{}
		check := func(step int) {
			t.Helper()
			got, gotStats := ix.Candidates(query, Policy{})
			reg := cat.Export(nil)
			var installed, dropped int
			byName := map[string]Candidate{}
			for _, c := range got {
				byName[c.Name] = c
			}
			if len(byName) != len(reg) || len(got) != len(reg) {
				t.Fatalf("trial %d step %d: %d candidates for %d graphs", trial, step, len(got), len(reg))
			}
			var postings []posting
			ix.mu.Lock()
			for name := range reg {
				g, content, err := cat.ContentSets(name)
				if err != nil {
					t.Fatal(err)
				}
				sum := SummaryOf(g, content.Shingles())
				for _, h := range sum.Hashes {
					postings = append(postings, posting{h, ix.recs[name].slot})
				}
				if old, ok := posted[name]; !ok || len(old) != len(sum.Hashes) || len(old) > 0 && &old[0] != &sum.Hashes[0] {
					installed++
				}
				posted[name] = sum.Hashes
				c, ok := byName[name]
				if !ok {
					t.Fatalf("trial %d step %d: %s not ranked", trial, step, name)
				}
				if want := naiveCandidate(name, query, sum); !reflect.DeepEqual(c, want) {
					t.Fatalf("trial %d step %d: %s scored\n got %+v\nwant %+v", trial, step, name, c, want)
				}
			}
			for name := range posted {
				if _, ok := reg[name]; !ok {
					delete(posted, name)
					dropped++
				}
			}
			if gotStats.Installed != installed || gotStats.Dropped != dropped {
				t.Fatalf("trial %d step %d: installed %d dropped %d, want %d and %d", trial, step, gotStats.Installed, gotStats.Dropped, installed, dropped)
			}
			slices.SortFunc(postings, func(a, b posting) int {
				return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.slot, b.slot))
			})
			var held []posting
			for i, h := range ix.post.hash {
				held = append(held, posting{h, ix.post.slot[i]})
			}
			ix.mu.Unlock()
			if !slices.Equal(held, postings) {
				t.Fatalf("trial %d step %d: postings\n got %v\nwant %v", trial, step, held, postings)
			}

			fresh := catalog.New(0)
			for n, g := range reg {
				if err := fresh.Register(n, g); err != nil {
					t.Fatal(err)
				}
			}
			want, wantStats := NewIndex(fresh).Candidates(query, Policy{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: incremental candidates diverge\n got %+v\nwant %+v", trial, step, got, want)
			}
			if scoring(gotStats) != scoring(wantStats) {
				t.Fatalf("trial %d step %d: stats diverge: %+v vs %+v", trial, step, gotStats, wantStats)
			}
		}
		check(0) // build every record, so later searches rebuild only changed ones

		for step := 1; step <= 8; step++ {
			for range 1 + rng.Intn(3) {
				name := names[rng.Intn(len(names))]
				g, err := cat.Get(name)
				switch {
				case err != nil: // removed: register the name again
					if err := cat.Register(name, contentGraph(text(), text())); err != nil {
						t.Fatal(err)
					}
				case rng.Intn(4) == 0:
					if err := cat.Remove(name); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := cat.Apply(name, randomSearchPatch(rng, g, words)); err != nil {
						t.Fatalf("trial %d step %d: %v", trial, step, err)
					}
				}
			}
			check(step)
		}
	}
}

// posting is one (hash, slot) pair of an index's postings.
type posting struct {
	hash uint64
	slot int32
}

// naiveCandidate scores graph name with summary sum against the query
// q without the index: its overlap by a two-pointer merge of the two
// ascending hash lists, and each pattern node's held count by looking
// the node's shingles up in a set of the graph's.
func naiveCandidate(name string, q, sum Summary) Candidate {
	overlap := 0
	for i, j := 0, 0; i < len(q.Hashes) && j < len(sum.Hashes); {
		switch {
		case q.Hashes[i] < sum.Hashes[j]:
			i++
		case q.Hashes[i] > sum.Hashes[j]:
			j++
		default:
			overlap++
			i++
			j++
		}
	}
	cont, res := scoreContent(q, sum, overlap)
	ss := q.Sig.StructSim(sum.Sig)
	c := Candidate{
		Name:        name,
		Score:       (1-structWeight)*cont + structWeight*ss,
		Containment: cont,
		Resemblance: res,
		StructSim:   ss,
		Overlap:     overlap,
	}
	if q.Nodes != nil && q.Total == len(q.Hashes) && sum.Total == len(sum.Hashes) {
		in := map[uint64]bool{}
		for _, h := range sum.Hashes {
			in[h] = true
		}
		c.Held = make([]int32, q.Nodes.NumNodes())
		for v := range c.Held {
			for _, k := range q.Nodes.NodeKeys(graph.NodeID(v)) {
				if in[q.Hashes[k]] {
					c.Held[v]++
				}
			}
		}
	}
	return c
}

// TestIndexEdgeOnlyPatchSharesHashes pins the cheap path: a patch that
// touches no content installs no postings (the new version shares its
// predecessor's hash sample) and moves only the structural signature,
// while a content patch installs the version again.
func TestIndexEdgeOnlyPatchSharesHashes(t *testing.T) {
	cat := catalog.New(0)
	ix := NewIndex(cat)
	if err := cat.Register("g", contentGraph("some shared words", "more shared words", "yet more text")); err != nil {
		t.Fatal(err)
	}
	q := Summarize(contentGraph("some shared words", "more shared words"))
	before, stats := ix.Candidates(q, Policy{})
	if len(before) != 1 || stats.Installed != 1 {
		t.Fatalf("first search: candidates %v, stats %+v", before, stats)
	}

	if _, err := cat.Apply("g", &graph.Patch{AddEdges: [][2]graph.NodeID{{0, 2}}}); err != nil {
		t.Fatal(err)
	}
	after, stats := ix.Candidates(q, Policy{})
	if len(after) != 1 {
		t.Fatalf("candidates %v", after)
	}
	if stats.Installed != 0 || stats.Dropped != 0 {
		t.Fatalf("edge-only patch installed %d and dropped %d, want none", stats.Installed, stats.Dropped)
	}
	if after[0].Overlap != before[0].Overlap || after[0].StructSim == before[0].StructSim {
		t.Fatalf("edge patch: before %+v, after %+v; want the overlap kept and the structure moved", before[0], after[0])
	}

	if _, err := cat.Apply("g", &graph.Patch{SetContent: []graph.ContentUpdate{{Node: 2, Content: "rewritten text"}}}); err != nil {
		t.Fatal(err)
	}
	if _, stats := ix.Candidates(q, Policy{}); stats.Installed != 1 {
		t.Fatalf("content patch installed %d, want 1", stats.Installed)
	}
}

// TestIndexBytes pins Bytes on a two-graph catalog: 12 B per posting
// and 8 B per slot, and nothing once every graph is gone and a search
// has run.
func TestIndexBytes(t *testing.T) {
	a := contentGraph("first graph text with several shingles", "and a second node")
	b := contentGraph("second graph text", "sharing several shingles with the first")
	cat, ix := newIndexOver(t, map[string]*graph.Graph{"a": a, "b": b})
	if got := ix.Bytes(); got != 0 {
		t.Fatalf("empty index: %d bytes", got)
	}
	q := Summarize(contentGraph("graph text"))
	ix.Candidates(q, Policy{})
	na, nb := len(Summarize(a).Hashes), len(Summarize(b).Hashes)
	if got, want := ix.Bytes(), int64(12*(na+nb)+8*2); got != want {
		t.Fatalf("two graphs (%d + %d shingles): %d bytes, want %d", na, nb, got, want)
	}
	for _, name := range []string{"a", "b"} {
		if err := cat.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ix.Bytes(), int64(12*(na+nb)+8*2); got != want {
		t.Fatalf("removed, not yet searched: %d bytes, want %d", got, want)
	}
	ix.Candidates(q, Policy{})
	if got := ix.Bytes(); got != 0 {
		t.Fatalf("every graph removed and searched: %d bytes, want 0", got)
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

// TestIndexLongPatchRuns drives one graph through long runs of patches
// — never searched, searched once before the run, and searched every
// few patches — and requires what the index then serves to deep-equal
// a fresh Summarize of the final graph.
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
			for step := 1; step <= 320; step++ {
				g, err := cat.Get("g")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cat.Apply("g", randomSearchPatch(rng, g, words)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if tc.searchEvery > 0 && step%tc.searchEvery == 0 {
					ix.Candidates(query, Policy{})
				}
			}
			ix.Candidates(query, Policy{}) // rebuild the stale summary
			g, err := cat.Get("g")
			if err != nil {
				t.Fatal(err)
			}
			ix.mu.Lock()
			got := ix.recs["g"].sum
			ix.mu.Unlock()
			if want := Summarize(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("summary after the run diverges from a fresh Summarize\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCandidatesCountHeldShingles: with the pattern's per-node structure
// on the query, every candidate carries, per pattern node, exactly how
// many of the node's shingles the graph's content index holds; without
// it, or when the query's shingle set was sampled, it carries none.
func TestCandidatesCountHeldShingles(t *testing.T) {
	cat := catalog.New(0)
	texts := []string{"alpha beta gamma delta", "beta gamma delta epsilon", "zeta eta theta", "alpha beta", ""}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		nodes := make([]string, 1+rng.Intn(4))
		for j := range nodes {
			nodes[j] = texts[rng.Intn(len(texts))] + fmt.Sprintf(" w%d", rng.Intn(6))
		}
		if err := cat.Register(fmt.Sprintf("g%02d", i), contentGraph(nodes...)); err != nil {
			t.Fatal(err)
		}
	}
	pattern := contentGraph("alpha beta gamma delta w1", "zeta eta theta w2", "beta w3", "nothing shared here")
	p := simmatrix.NewContentPattern(pattern, 0)
	q := SummaryOf(pattern, p.Shingles())
	ix := NewIndex(cat)

	plain, _ := ix.Candidates(q, Policy{})
	for _, c := range plain {
		if c.Held != nil {
			t.Fatalf("%s: held counts without the pattern's nodes: %v", c.Name, c.Held)
		}
	}
	q.Nodes = p
	cands, _ := ix.Candidates(q, Policy{})
	if len(cands) != 12 {
		t.Fatalf("%d candidates, want 12", len(cands))
	}
	for i, c := range cands {
		if c.Name != plain[i].Name || c.Overlap != plain[i].Overlap {
			t.Fatalf("counting per node changed stage 1: %+v vs %+v", c, plain[i])
		}
		_, content, err := cat.ContentSets(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		union := content.Shingles()
		for v := 0; v < p.NumNodes(); v++ {
			want := int32(0)
			for _, k := range p.NodeKeys(graph.NodeID(v)) {
				if _, ok := slices.BinarySearch(union, p.Shingles()[k]); ok {
					want++
				}
			}
			if c.Held[v] != want {
				t.Fatalf("%s: pattern node %d holds %d shingles, counted %d", c.Name, v, want, c.Held[v])
			}
		}
	}
	q.Total = len(q.Hashes) + 1 // a sampled query
	sampled, _ := ix.Candidates(q, Policy{})
	for _, c := range sampled {
		if c.Held != nil {
			t.Fatalf("%s: held counts from a sampled query: %v", c.Name, c.Held)
		}
	}
}

// webSearchCatalog registers a web_search-sized catalog (10 sites × 11
// versions × 60 pages) and returns it with a 12-hub skeleton of site 0
// prepared as the engine prepares a search pattern.
func webSearchCatalog(tb testing.TB) (*catalog.Catalog, *graph.Graph, *simmatrix.ContentPattern) {
	tb.Helper()
	cat := catalog.New(0)
	var pattern *graph.Graph
	for s := 0; s < 10; s++ {
		arch := webgen.Generate(webgen.Config{Category: webgen.Category(s%3 + 1), Pages: 60, Versions: 11, Seed: int64(s)})
		for v, g := range arch.Versions {
			if err := cat.Register(fmt.Sprintf("site%02d.v%02d", s, v), g); err != nil {
				tb.Fatal(err)
			}
		}
		if s == 0 {
			pattern = webgen.TopKSkeleton(arch.Versions[5], 12)
		}
	}
	return cat, pattern, simmatrix.NewContentPattern(pattern, 0)
}

// buildContentIndexes builds every registered version's content index,
// so a timed stage 1 reads them instead of shingling.
func buildContentIndexes(tb testing.TB, cat *catalog.Catalog) {
	tb.Helper()
	for name := range cat.Export(nil) {
		if _, _, err := cat.ContentSets(name); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCandidates times a warm stage 1 over a web_search-sized
// catalog, with and without the per-node shingle counts the search
// bound reads.
func BenchmarkCandidates(b *testing.B) {
	cat, pattern, p := webSearchCatalog(b)
	ix := NewIndex(cat)
	for _, held := range []bool{false, true} {
		q := SummaryOf(pattern, p.Shingles())
		if held {
			q.Nodes = p
		}
		ix.Candidates(q, Policy{MinResemblance: 0.1})
		b.Run(fmt.Sprintf("held=%v", held), func(b *testing.B) {
			for b.Loop() {
				ix.Candidates(q, Policy{MinResemblance: 0.1})
			}
		})
	}
}

// BenchmarkCandidatesCold times the first stage 1 of a fresh index over
// the same catalog, whose content indexes are already built: what the
// first search after a boot pays to post every version.
func BenchmarkCandidatesCold(b *testing.B) {
	cat, pattern, p := webSearchCatalog(b)
	buildContentIndexes(b, cat)
	q := SummaryOf(pattern, p.Shingles())
	q.Nodes = p
	for b.Loop() {
		NewIndex(cat).Candidates(q, Policy{MinResemblance: 0.1})
	}
}

// BenchmarkCandidatesAfterPatch times the stage 1 that follows one
// version's set_content patch: the patch and the new version's content
// index are built off the clock, so the timed call re-posts that one
// version.
func BenchmarkCandidatesAfterPatch(b *testing.B) {
	cat, pattern, p := webSearchCatalog(b)
	buildContentIndexes(b, cat)
	q := SummaryOf(pattern, p.Shingles())
	q.Nodes = p
	ix := NewIndex(cat)
	ix.Candidates(q, Policy{MinResemblance: 0.1})
	const name = "site00.v05"
	b.ResetTimer()
	for i := range b.N { // b.Loop does not end when its body stops the timer
		b.StopTimer()
		patch := &graph.Patch{SetContent: []graph.ContentUpdate{{Node: 0, Content: fmt.Sprintf("patched home page text %d with a few more words", i)}}}
		if _, err := cat.Apply(name, patch); err != nil {
			b.Fatal(err)
		}
		if _, _, err := cat.ContentSets(name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ix.Candidates(q, Policy{MinResemblance: 0.1})
	}
}
