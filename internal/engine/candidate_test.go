package engine

import (
	"context"
	"sync"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

// TestSearchPreparesPatternOnce: a search normalises, fingerprints and
// shingles its pattern once, however many candidate graphs stage 2 fans
// it out to; independent matches still prepare one pattern each.
func TestSearchPreparesPatternOnce(t *testing.T) {
	e := New(Options{Workers: 2, MaxClosures: 32})
	defer e.Close()
	pattern := registerArchive(t, e, "site", webgen.Store, 5, 60, 6, 8)
	ctx := context.Background()

	before := e.prepares.Load()
	res := e.Search(ctx, SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: 0.75, Sim: SimContent, MinResemblance: -1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Matched != 6 {
		t.Fatalf("search matched %d graphs, want all 6 versions", res.Stats.Matched)
	}
	if got := e.prepares.Load() - before; got != 1 {
		t.Fatalf("a search over %d candidates prepared its pattern %d times, want 1", res.Stats.Matched, got)
	}

	// A batch over one pattern object shares the preparation too; clones
	// are different objects and each get their own.
	before = e.prepares.Load()
	reqs := []Request{
		{Pattern: pattern, GraphName: "site/v0", Algo: MaxSim, Xi: 0.75, Sim: SimContent},
		{Pattern: pattern, GraphName: "site/v1", Algo: MaxSim, Xi: 0.75, Sim: SimContent},
		{Pattern: pattern.Clone(), GraphName: "site/v2", Algo: MaxSim, Xi: 0.75, Sim: SimContent},
	}
	for i, r := range e.MatchBatch(ctx, reqs) {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
	}
	if got := e.prepares.Load() - before; got != 2 {
		t.Fatalf("a batch over two pattern objects prepared %d patterns, want 2", got)
	}
}

// TestContentMatchRacesContentPatch runs content-similarity matches
// against a graph whose page text is being rewritten underneath them.
// The matrix is built over the candidate index of the very registry
// entry the graph came from, so a match can only ever see one whole
// version: no request may fail (a match that straddled a patch used to
// answer "replaced mid-request"), and every result must be exactly what
// a fresh engine computes on one of the two versions. Run with -race.
func TestContentMatchRacesContentPatch(t *testing.T) {
	arch := webgen.Generate(webgen.Config{Category: webgen.Newspaper, Pages: 40, Versions: 1, Seed: 11})
	base := arch.Versions[0]
	pattern := webgen.TopKSkeleton(base, 6)
	// Rewriting the text of the pattern's first hub changes the match:
	// under version B that hub no longer resembles its own page.
	var hub graph.NodeID = -1
	for u := 0; u < base.NumNodes(); u++ {
		if base.Content(graph.NodeID(u)) == pattern.Content(0) {
			hub = graph.NodeID(u)
			break
		}
	}
	if hub < 0 {
		t.Fatal("fixture: the skeleton's first hub is not a page of the site")
	}
	toB := &graph.Patch{SetContent: []graph.ContentUpdate{{Node: hub, Content: "this page was rewritten from top to bottom by an editor"}}}
	toA := &graph.Patch{SetContent: []graph.ContentUpdate{{Node: hub, Content: base.Content(hub)}}}
	versionB, err := base.ApplyPatch(toB)
	if err != nil {
		t.Fatal(err)
	}

	req := Request{Pattern: pattern, GraphName: "site", Algo: MaxSim, Xi: 0.57, Sim: SimContent}
	ctx := context.Background()
	fresh := func(g *graph.Graph) Result {
		e := New(Options{Workers: 1})
		defer e.Close()
		if err := e.Register("site", g.Clone()); err != nil {
			t.Fatal(err)
		}
		res := e.Match(ctx, req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	wantA, wantB := fresh(base), fresh(versionB)
	if mappingEqual(wantA.Mapping, wantB.Mapping) && wantA.QualSim == wantB.QualSim {
		t.Fatal("fixture: the two versions match identically, the test could not tell them apart")
	}

	e := New(Options{Workers: 4})
	defer e.Close()
	if err := e.Register("site", base.Clone()); err != nil {
		t.Fatal(err)
	}
	const readers, reads = 4, 40
	// The editor rewrites the page back and forth until the last reader
	// is done.
	readersDone := make(chan struct{})
	editorDone := make(chan struct{})
	go func() {
		defer close(editorDone)
		for i := 0; ; i++ {
			select {
			case <-readersDone:
				return
			default:
			}
			p := toB
			if i%2 == 1 {
				p = toA
			}
			if _, err := e.ApplyPatch("site", p); err != nil {
				t.Errorf("patch %d: %v", i, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var sawA, sawB int
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				// A fresh pattern object per request, salted through ξ, so
				// requests neither share a preparation nor coalesce.
				q := req
				q.Pattern = pattern.Clone()
				q.Xi += float64(r*reads+i) * 1e-12
				res := e.Match(ctx, q)
				if res.Err != nil {
					t.Errorf("reader %d match %d: %v", r, i, res.Err)
					return
				}
				isA := mappingEqual(res.Mapping, wantA.Mapping) && res.QualSim == wantA.QualSim && res.QualCard == wantA.QualCard
				isB := mappingEqual(res.Mapping, wantB.Mapping) && res.QualSim == wantB.QualSim && res.QualCard == wantB.QualCard
				if !isA && !isB {
					t.Errorf("reader %d match %d: result %v (qualSim %v) is neither version's (%v / %v)",
						r, i, res.Mapping, res.QualSim, wantA.Mapping, wantB.Mapping)
					return
				}
				mu.Lock()
				if isA {
					sawA++
				} else {
					sawB++
				}
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(readersDone)
	<-editorDone
	if got := e.Stats().Errors; got != 0 {
		t.Fatalf("engine counted %d failed requests, want 0", got)
	}
	t.Logf("matches served from version A: %d, from version B: %d", sawA, sawB)
}
