package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/simulation"
	"graphmatch/internal/webgen"
)

// TestSearchPreparesPatternOnce: a search normalises and shingles its
// pattern once, however many candidate graphs stage 2 fans it out to;
// independent matches still prepare one pattern each.
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
		if err := e.Register(context.Background(), "site", g.Clone()); err != nil {
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
	if err := e.Register(context.Background(), "site", base.Clone()); err != nil {
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
			if _, err := e.ApplyPatch(context.Background(), "site", p); err != nil {
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
				// A fresh pattern object per request, so requests do not
				// share a preparation.
				q := req
				q.Pattern = pattern.Clone()
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

// TestContentMatchAtXiEqualsFullMatrix: the engine builds each content
// matrix at the request's ξ and keeps only the entries ≥ ξ. Every
// algorithm, simulation included, must still answer exactly what it
// answers over the full matrix, because every reader reads at that ξ.
func TestContentMatchAtXiEqualsFullMatrix(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	arch := webgen.Generate(webgen.Config{Category: webgen.Organization, Pages: 40, Versions: 2, Seed: 3})
	data := arch.Versions[1]
	if err := e.Register(context.Background(), "site", data.Clone()); err != nil {
		t.Fatal(err)
	}
	pattern := webgen.TopKSkeleton(arch.Versions[0], 6)
	ctx := context.Background()
	for _, xi := range []float64{0.3, 0.57, 0.75, 1} {
		for _, algo := range []Algorithm{MaxCard, MaxCard11, MaxSim, MaxSim11, Decide, Decide11, Simulation} {
			req := Request{Pattern: pattern, GraphName: "site", Algo: algo, Xi: xi, Sim: SimContent}
			got := e.Match(ctx, req)
			if got.Err != nil {
				t.Fatalf("ξ=%v %s: %v", xi, algo, got.Err)
			}
			if algo == Simulation {
				want := simulation.Compute(pattern, data, simmatrix.FromContent(pattern, data, 0), xi).Matches()
				if got.Holds != want {
					t.Errorf("ξ=%v simulation: holds %v, over the full matrix %v", xi, got.Holds, want)
				}
				continue
			}
			want := directResult(t, data, req)
			if !mappingEqual(got.Mapping, want.Mapping) || got.QualCard != want.QualCard || got.QualSim != want.QualSim || got.Holds != want.Holds && (algo == Decide || algo == Decide11) {
				t.Errorf("ξ=%v %s: (%v, %v, %v, %v), over the full matrix (%v, %v, %v, %v)", xi, algo,
					got.Mapping, got.QualCard, got.QualSim, got.Holds, want.Mapping, want.QualCard, want.QualSim, want.Holds)
			}
		}
	}
}

// TestContentXiClampedToUnitRange: ξ outside [0, 1] is read as the
// nearest end of the range everywhere a request reads it — the content
// matrix, the search bound and the matcher — so a content match or
// search at ξ = 1.5 answers as at ξ = 1 and one at ξ = −0.5 as at ξ = 0.
// A matrix built at the raw ξ and read at the clamped one used to panic
// in the worker.
func TestContentXiClampedToUnitRange(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	pattern := registerArchive(t, e, "site", webgen.Organization, 3, 40, 3, 6)
	ctx := context.Background()
	for _, c := range []struct{ xi, in float64 }{{1.5, 1}, {-0.5, 0}} {
		req := Request{Pattern: pattern, GraphName: "site/v1", Algo: MaxSim, Xi: c.in, Sim: SimContent}
		want := e.Match(ctx, req)
		req.Xi = c.xi
		got := e.Match(ctx, req)
		if want.Err != nil || got.Err != nil {
			t.Fatalf("ξ=%v: errors %v, %v", c.xi, got.Err, want.Err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("match at ξ=%v: %+v, at ξ=%v: %+v", c.xi, got, c.in, want)
		}

		sreq := SearchRequest{Pattern: pattern, Algo: MaxSim, Xi: c.in, Sim: SimContent, K: 2}
		swant := e.Search(ctx, sreq)
		sreq.Xi = c.xi
		sgot := e.Search(ctx, sreq)
		if swant.Err != nil || sgot.Err != nil {
			t.Fatalf("search ξ=%v: errors %v, %v", c.xi, sgot.Err, swant.Err)
		}
		sgot.Stats.Stage1, sgot.Stats.Stage2, swant.Stats.Stage1, swant.Stats.Stage2 = 0, 0, 0, 0
		if !reflect.DeepEqual(sgot, swant) {
			t.Errorf("search at ξ=%v: %+v, at ξ=%v: %+v", c.xi, sgot, c.in, swant)
		}
	}
}
