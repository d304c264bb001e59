package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"graphmatch/internal/catalog"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// randomGraph builds a deterministic random digraph whose labels repeat
// every 16 nodes, so label equality admits many candidates.
func randomGraph(n, avgDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("L%d", i%16))
	}
	for i := 0; i < n*avgDeg; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

// patternFrom carves a connected-ish pattern out of a data graph so
// matches actually exist.
func patternFrom(g *graph.Graph, size int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	keep := make([]graph.NodeID, 0, size)
	seen := make(map[graph.NodeID]bool)
	for len(keep) < size {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}

func mappingEqual(a, b core.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for v, u := range a {
		if b[v] != u {
			return false
		}
	}
	return true
}

// directResult recomputes a request with a private core.Instance — the
// pre-engine code path the scheduler must agree with.
func directResult(t *testing.T, g2 *graph.Graph, req Request) Result {
	t.Helper()
	var mat simmatrix.Matrix
	if req.Sim == SimContent {
		mat = simmatrix.FromContent(req.Pattern, g2, 0)
	} else {
		mat = simmatrix.NewLabelEquality(req.Pattern, g2)
	}
	in := core.NewInstance(req.Pattern, g2, mat, req.Xi)
	in.MaxPathLen = req.PathLimit
	var res Result
	var err error
	ctx := context.Background()
	switch req.Algo {
	case MaxCard:
		res.Mapping, err = in.CompMaxCardCtx(ctx)
	case MaxCard11:
		res.Mapping, err = in.CompMaxCard11Ctx(ctx)
	case MaxSim:
		res.Mapping, err = in.CompMaxSimCtx(ctx)
	case MaxSim11:
		res.Mapping, err = in.CompMaxSim11Ctx(ctx)
	case Decide:
		res.Mapping, res.Holds, err = in.DecideCtx(ctx)
	case Decide11:
		res.Mapping, res.Holds, err = in.Decide11Ctx(ctx)
	default:
		t.Fatalf("directResult cannot run %q", req.Algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	res.QualCard = in.QualCard(res.Mapping)
	res.QualSim = in.QualSim(res.Mapping)
	return res
}

// TestEngineMatchesDirectMatcher is the core acceptance check: for every
// algorithm, the engine (shared closure, worker pool) returns exactly
// the result of a standalone instance.
func TestEngineMatchesDirectMatcher(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	data := randomGraph(60, 3, 1)
	if err := e.Register("data", data); err != nil {
		t.Fatal(err)
	}
	pattern := patternFrom(data, 8, 2)

	for _, algo := range []Algorithm{MaxCard, MaxCard11, MaxSim, MaxSim11, Decide, Decide11} {
		for _, pathLimit := range []int{0, 2} {
			req := Request{Pattern: pattern, GraphName: "data", Algo: algo, Xi: 0.9, PathLimit: pathLimit}
			got := e.Match(context.Background(), req)
			if got.Err != nil {
				t.Fatalf("%s/limit=%d: %v", algo, pathLimit, got.Err)
			}
			want := directResult(t, data, req)
			if !mappingEqual(got.Mapping, want.Mapping) {
				t.Errorf("%s/limit=%d: mapping %v, direct %v", algo, pathLimit, got.Mapping, want.Mapping)
			}
			if got.QualCard != want.QualCard || got.QualSim != want.QualSim {
				t.Errorf("%s/limit=%d: quality (%v,%v), direct (%v,%v)",
					algo, pathLimit, got.QualCard, got.QualSim, want.QualCard, want.QualSim)
			}
			if algo == Decide || algo == Decide11 {
				if got.Holds != want.Holds {
					t.Errorf("%s/limit=%d: holds %v, direct %v", algo, pathLimit, got.Holds, want.Holds)
				}
			}
			// The engine mapping must verify as a valid p-hom mapping.
			if len(got.Mapping) > 0 {
				in := core.NewInstance(pattern, data, simmatrix.NewLabelEquality(pattern, data), 0.9)
				in.MaxPathLen = pathLimit
				injective := algo == MaxCard11 || algo == MaxSim11 || algo == Decide11
				if err := in.CheckMapping(got.Mapping, injective); err != nil {
					t.Errorf("%s/limit=%d: invalid mapping: %v", algo, pathLimit, err)
				}
			}
		}
	}
	// Every request above hit the closure cache: one miss at Register
	// for limit 0 plus one per bounded limit used.
	s := e.Catalog().Stats()
	if s.Misses != 2 {
		t.Errorf("closure misses = %d, want 2 (register + limit-2 index)", s.Misses)
	}
	if s.Hits == 0 {
		t.Errorf("no closure cache hits across %d requests", e.Stats().Requests)
	}
}

func TestEngineSimulationBaseline(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	data := randomGraph(40, 3, 3)
	if err := e.Register("data", data); err != nil {
		t.Fatal(err)
	}
	pattern := patternFrom(data, 5, 4)
	res := e.Match(context.Background(), Request{Pattern: pattern, GraphName: "data", Algo: Simulation, Xi: 0.9})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mapping != nil {
		t.Errorf("simulation returned a mapping: %v", res.Mapping)
	}
}

// TestCoalescing issues a batch of identical requests through a single
// worker: all but the first must attach to the in-flight computation.
// The worker is held between pickup and execution until every duplicate
// has attached (the coalesced counter only moves after a successful
// attach), so the outcome does not depend on how long a match takes.
func TestCoalescing(t *testing.T) {
	const dup = 16
	e := New(Options{Workers: 1, QueueDepth: 64})
	defer e.Close()
	e.beforeExecute = func() {
		for e.coalesced.Load() < dup-1 {
			runtime.Gosched()
		}
	}
	data := randomGraph(250, 4, 5)
	if err := e.Register("data", data); err != nil {
		t.Fatal(err)
	}
	pattern := patternFrom(data, 25, 6)
	req := Request{Pattern: pattern, GraphName: "data", Algo: MaxCard, Xi: 0.3, Sim: SimContent}
	reqs := make([]Request, dup)
	for i := range reqs {
		// Distinct pattern objects with identical content must still
		// coalesce: the key is a content digest, not object identity.
		reqs[i] = req
		reqs[i].Pattern = pattern.Clone()
	}
	results := e.MatchBatch(context.Background(), reqs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if !mappingEqual(r.Mapping, results[0].Mapping) {
			t.Fatalf("request %d mapping differs from request 0", i)
		}
	}
	s := e.Stats()
	if s.Coalesced != dup-1 {
		t.Errorf("coalesced = %d, want %d", s.Coalesced, dup-1)
	}
	if s.Executed != 1 {
		t.Errorf("executed = %d, want 1", s.Executed)
	}
	coalescedFlags := 0
	for _, r := range results {
		if r.Coalesced {
			coalescedFlags++
		}
	}
	if coalescedFlags != dup-1 {
		t.Errorf("results flagged coalesced = %d, want %d", coalescedFlags, dup-1)
	}
}

func TestRequestValidation(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if err := e.Register("g", randomGraph(10, 2, 7)); err != nil {
		t.Fatal(err)
	}
	pattern := graph.FromEdgeList([]string{"L0"}, nil)
	ctx := context.Background()

	if res := e.Match(ctx, Request{GraphName: "g", Algo: MaxCard}); res.Err == nil {
		t.Error("nil pattern accepted")
	}
	if res := e.Match(ctx, Request{Pattern: pattern, GraphName: "g", Algo: "bogus"}); res.Err == nil {
		t.Error("bogus algorithm accepted")
	}
	if res := e.Match(ctx, Request{Pattern: pattern, GraphName: "g", Algo: MaxCard, Sim: "bogus"}); res.Err == nil {
		t.Error("bogus similarity accepted")
	}
	res := e.Match(ctx, Request{Pattern: pattern, GraphName: "missing", Algo: MaxCard})
	if !errors.Is(res.Err, catalog.ErrNotFound) {
		t.Errorf("unknown graph: err = %v, want ErrNotFound", res.Err)
	}
	if got := e.Stats().Errors; got != 4 {
		t.Errorf("error counter = %d, want 4", got)
	}
}

// TestExactNodeLimit checks the DoS guard: exact decisions beyond the
// configured pattern size are rejected at submission, approximation
// algorithms are unaffected.
func TestExactNodeLimit(t *testing.T) {
	e := New(Options{Workers: 1, ExactNodeLimit: 5})
	defer e.Close()
	data := randomGraph(30, 3, 12)
	if err := e.Register("g", data); err != nil {
		t.Fatal(err)
	}
	big := patternFrom(data, 8, 13)
	small := patternFrom(data, 4, 14)
	ctx := context.Background()

	res := e.Match(ctx, Request{Pattern: big, GraphName: "g", Algo: Decide, Xi: 0.9})
	if !errors.Is(res.Err, ErrExactLimit) {
		t.Errorf("decide over limit: err = %v, want ErrExactLimit", res.Err)
	}
	if res := e.Match(ctx, Request{Pattern: small, GraphName: "g", Algo: Decide11, Xi: 0.9}); res.Err != nil {
		t.Errorf("decide11 within limit: %v", res.Err)
	}
	if res := e.Match(ctx, Request{Pattern: big, GraphName: "g", Algo: MaxCard, Xi: 0.9}); res.Err != nil {
		t.Errorf("maxcard is not limited: %v", res.Err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if err := e.Register("g", randomGraph(10, 2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("g", randomGraph(10, 2, 9)); !errors.Is(err, catalog.ErrDuplicate) {
		t.Errorf("duplicate register: %v, want ErrDuplicate", err)
	}
}

func TestClose(t *testing.T) {
	e := New(Options{Workers: 2})
	if err := e.Register("g", randomGraph(20, 2, 10)); err != nil {
		t.Fatal(err)
	}
	pattern := patternFrom(e.mustGet(t, "g"), 4, 11)
	if res := e.Match(context.Background(), Request{Pattern: pattern, GraphName: "g", Algo: MaxCard}); res.Err != nil {
		t.Fatal(res.Err)
	}
	e.Close()
	e.Close() // idempotent
	if res := e.Match(context.Background(), Request{Pattern: pattern, GraphName: "g", Algo: MaxCard}); res.Err == nil {
		t.Error("Match after Close succeeded")
	}
}

func (e *Engine) mustGet(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms {
		got, err := ParseAlgorithm(string(a))
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("subiso"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	a := graph.FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
	b := graph.FromEdgeList([]string{"A", "B"}, [][2]int{{1, 0}})
	c := graph.FromEdgeList([]string{"A", "C"}, [][2]int{{0, 1}})
	if fingerprint(a) == fingerprint(b) {
		t.Error("edge direction not fingerprinted")
	}
	if fingerprint(a) == fingerprint(c) {
		t.Error("labels not fingerprinted")
	}
	if fingerprint(a) != fingerprint(a.Clone()) {
		t.Error("identical graphs fingerprint differently")
	}
	d := a.Clone()
	d.SetWeight(0, 0.5)
	if fingerprint(a) == fingerprint(d) {
		t.Error("weights not fingerprinted")
	}
	e := a.Clone()
	e.SetContent(1, "text")
	if fingerprint(a) == fingerprint(e) {
		t.Error("contents not fingerprinted")
	}
}
