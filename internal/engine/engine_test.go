package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	if err := e.Register(context.Background(), "data", data); err != nil {
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
	if err := e.Register(context.Background(), "data", data); err != nil {
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

func TestRequestValidation(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if err := e.Register(context.Background(), "g", randomGraph(10, 2, 7)); err != nil {
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
	if err := e.Register(context.Background(), "g", data); err != nil {
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
	if err := e.Register(context.Background(), "g", randomGraph(10, 2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(context.Background(), "g", randomGraph(10, 2, 9)); !errors.Is(err, catalog.ErrDuplicate) {
		t.Errorf("duplicate register: %v, want ErrDuplicate", err)
	}
}

func TestClose(t *testing.T) {
	e := New(Options{Workers: 2})
	if err := e.Register(context.Background(), "g", randomGraph(20, 2, 10)); err != nil {
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
	res, err := e.cat.Resolve(context.Background(), name, 0, catalog.NeedGraph)
	g := res.Graph
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

// TestNoContextTwins keeps one entry point per operation on the catalog
// and the engine: no exported method M may have an exported sibling
// MCtx, because the one method takes the context first.
func TestNoContextTwins(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(&catalog.Catalog{}), reflect.TypeOf(&Engine{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if _, twin := typ.MethodByName(name + "Ctx"); twin {
				t.Errorf("%v has both %s and %sCtx", typ, name, name)
			}
		}
	}
}
