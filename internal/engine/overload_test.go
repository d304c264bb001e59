package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/graph"
)

// pathGraph builds the directed path 0→1→…→n-1 with one shared label:
// its reachability is the total order i<j.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("P")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.Finish()
	return g
}

// cyclePattern builds a directed k-cycle with the path graph's label.
// Against a DAG it is unsatisfiable — a cycle needs cyclic reachability
// — but the exact decider only discovers that after backtracking over
// every ordered candidate tuple, which makes request duration long,
// deterministic, and tunable via the data-graph size.
func cyclePattern(k int) *graph.Graph {
	g := graph.New(k)
	for i := 0; i < k; i++ {
		g.AddNode("P")
	}
	for i := 0; i < k; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%k))
	}
	g.Finish()
	return g
}

// slowReq returns a Decide request that keeps a worker busy for tens of
// milliseconds (cubic in the data-path length, so tunable and
// deterministic). salt differentiates requests via an admissibility-
// preserving ξ perturbation (labels match exactly, so mat = 1 ≥ ξ) so
// they do not coalesce with each other.
func slowReq(salt int) Request {
	return Request{Pattern: cyclePattern(3), GraphName: "path", Algo: Decide, Xi: float64(salt) * 1e-9}
}

func newOverloadEngine(t *testing.T, maxPending int) *Engine {
	t.Helper()
	e := New(Options{Workers: 1, QueueDepth: 4, MaxPending: maxPending})
	t.Cleanup(e.Close)
	if err := e.Register("path", pathGraph(160)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAdmissionControlSheds(t *testing.T) {
	e := newOverloadEngine(t, 2)
	ctx := context.Background()
	const n = 8
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Match(ctx, slowReq(i))
		}(i)
	}
	wg.Wait()
	var shed, served int
	for _, r := range results {
		switch {
		case errors.Is(r.Err, ErrOverloaded):
			shed++
		case r.Err == nil:
			served++
		default:
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if shed == 0 {
		t.Fatalf("no requests shed with MaxPending=2 and %d concurrent slow requests", n)
	}
	if served == 0 {
		t.Fatal("every request shed: admitted work should still complete")
	}
	st := e.Stats()
	if st.Shed != uint64(shed) {
		t.Fatalf("Stats.Shed = %d, want %d", st.Shed, shed)
	}
	// The engine must fully recover once the burst drains.
	if res := e.Match(ctx, slowReq(0)); res.Err != nil {
		t.Fatalf("post-burst request failed: %v", res.Err)
	}
	if got := e.Stats().Pending; got != 0 {
		t.Fatalf("pending = %d after drain, want 0", got)
	}
}

func TestUnlimitedPendingNeverSheds(t *testing.T) {
	e := newOverloadEngine(t, 0)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Match(ctx, slowReq(i)).Err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed with MaxPending=0: %v", i, err)
		}
	}
}

func TestExpiredContextRejectedBeforeEnqueue(t *testing.T) {
	e := newOverloadEngine(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := e.Stats().Executed
	res := e.Match(ctx, slowReq(0))
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", res.Err)
	}
	// Nothing may have reached the pool.
	if got := e.Stats().Executed; got != before {
		t.Fatalf("executed grew %d→%d for an expired-context request", before, got)
	}
	if got := e.Stats().Pending; got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
	for i, r := range e.MatchBatch(ctx, []Request{slowReq(0), slowReq(2)}) {
		if !errors.Is(r.Err, ErrDeadline) {
			t.Fatalf("batch[%d] err = %v, want ErrDeadline", i, r.Err)
		}
	}
}

// TestMidFlightCancelFreesWorker pins the acceptance criterion: a
// cancelled match returns ErrDeadline promptly AND the worker abandons
// the recursion instead of running it to completion.
func TestMidFlightCancelFreesWorker(t *testing.T) {
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	// Big enough that the uncancelled decide takes ~seconds.
	if err := e.Register("path", pathGraph(2500)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := e.Match(ctx, slowReq(0))
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", res.Err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancelled match took %v to return", waited)
	}
	// The single worker must become free long before the abandoned
	// decide would have finished: a quick follow-up request completes.
	quick := Request{Pattern: pathGraph(3), GraphName: "path", Algo: MaxCard, Xi: 0.5}
	done := make(chan Result, 1)
	go func() { done <- e.Match(context.Background(), quick) }()
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatalf("follow-up failed: %v", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker still pinned by the cancelled recursion")
	}
}

// TestCoalescedPeerSurvivesCancellation pins the refcount semantics:
// the first waiter giving up must not kill a computation a coalesced
// peer still wants.
func TestCoalescedPeerSurvivesCancellation(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 8})
	t.Cleanup(e.Close)
	if err := e.Register("path", pathGraph(200)); err != nil {
		t.Fatal(err)
	}
	// Occupy the worker so the interesting task stays queued while both
	// waiters attach.
	blocker := make(chan Result, 1)
	go func() { blocker <- e.Match(context.Background(), slowReq(2)) }()
	time.Sleep(10 * time.Millisecond)

	shared := slowReq(0)
	impatient, cancel := context.WithCancel(context.Background())
	first := make(chan Result, 1)
	go func() { first <- e.Match(impatient, shared) }()
	time.Sleep(10 * time.Millisecond)
	patient := make(chan Result, 1)
	go func() { patient <- e.Match(context.Background(), shared) }()
	time.Sleep(10 * time.Millisecond)

	cancel()
	if r := <-first; !errors.Is(r.Err, ErrDeadline) {
		t.Fatalf("impatient waiter err = %v, want ErrDeadline", r.Err)
	}
	r := <-patient
	if r.Err != nil {
		t.Fatalf("patient coalesced waiter failed: %v", r.Err)
	}
	if r.Holds {
		t.Fatal("cycle pattern cannot hold against a DAG")
	}
	if b := <-blocker; b.Err != nil {
		t.Fatalf("blocker failed: %v", b.Err)
	}
}

// TestCancelledResultNotInherited pins that a fresh identical request
// arriving after every waiter detached starts a new computation rather
// than inheriting the cancelled task's ErrDeadline result — and that
// the fresh result is bit-identical to an undisturbed run.
func TestCancelledResultNotInherited(t *testing.T) {
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	if err := e.Register("path", pathGraph(220)); err != nil {
		t.Fatal(err)
	}
	req := slowReq(0)
	want := e.Match(context.Background(), req)
	if want.Err != nil {
		t.Fatalf("baseline failed: %v", want.Err)
	}
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(5+i*7)*time.Millisecond)
		res := e.Match(ctx, req)
		cancel()
		if res.Err != nil && !errors.Is(res.Err, ErrDeadline) {
			t.Fatalf("unexpected error: %v", res.Err)
		}
		fresh := e.Match(context.Background(), req)
		if fresh.Err != nil {
			t.Fatalf("request after cancellation failed: %v", fresh.Err)
		}
		if fresh.Holds != want.Holds || fresh.QualCard != want.QualCard || fresh.QualSim != want.QualSim ||
			!mappingEqual(fresh.Mapping, want.Mapping) {
			t.Fatalf("post-cancel result diverged: %+v vs %+v", fresh, want)
		}
	}
}

func TestRequestIDDecoratesErrors(t *testing.T) {
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	ctx := WithRequestID(context.Background(), "abc123")
	res := e.Match(ctx, Request{Pattern: cyclePattern(3), GraphName: "nope", Algo: MaxCard})
	if res.Err == nil {
		t.Fatal("expected unknown-graph error")
	}
	if got := res.Err.Error(); !containsStr(got, "[req abc123]") {
		t.Fatalf("error %q lacks request id", got)
	}
	if RequestID(ctx) != "abc123" {
		t.Fatal("RequestID round trip failed")
	}
	if RequestID(context.Background()) != "" {
		t.Fatal("RequestID of bare context should be empty")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestEngineMetricsRegistered(t *testing.T) {
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	if e.Metrics() == nil {
		t.Fatal("Metrics() nil")
	}
	names := strings.Join(e.Metrics().Names(), " ")
	for _, want := range []string{"phomd_engine_task_run_seconds", "phomd_catalog_graphs", "phomd_go_goroutines"} {
		if !strings.Contains(names, want) {
			t.Errorf("engine registry lacks %s", want)
		}
	}
}

func TestSlowReqIsActuallySlow(t *testing.T) {
	// Guard for the other tests in this file: if the decider gets fast
	// enough that slowReq finishes instantly, the saturation tests stop
	// testing anything — fail loudly instead of silently passing.
	e := newOverloadEngine(t, 0)
	start := time.Now()
	if res := e.Match(context.Background(), slowReq(0)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("slowReq finished in %v; overload tests need a slower canonical request", d)
	}
	_ = fmt.Sprintf
}
