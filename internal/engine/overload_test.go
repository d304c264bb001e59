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
// deterministic).
func slowReq() Request {
	return Request{Pattern: cyclePattern(3), GraphName: "path", Algo: Decide}
}

func newOverloadEngine(t *testing.T, maxPending int) *Engine {
	t.Helper()
	e := New(Options{Workers: 1, MaxPending: maxPending})
	t.Cleanup(e.Close)
	if err := e.Register(context.Background(), "path", pathGraph(160)); err != nil {
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
			results[i] = e.Match(ctx, slowReq())
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
	if res := e.Match(ctx, slowReq()); res.Err != nil {
		t.Fatalf("post-burst request failed: %v", res.Err)
	}
	if got := e.Stats().Pending; got != 0 {
		t.Fatalf("pending = %d after drain, want 0", got)
	}
}

// TestDefaultPendingBoundIsQueuePlusWorkers pins MaxPending < 0: the
// engine admits exactly its queue of 4 × Workers plus Workers tasks,
// 5 × Workers, and sheds the next. The worker is held before
// executing, so admission never races the matcher.
func TestDefaultPendingBoundIsQueuePlusWorkers(t *testing.T) {
	const workers = 1
	const depth = 4 * workers // the queue Open sizes
	e := New(Options{Workers: workers, MaxPending: -1})
	t.Cleanup(e.Close)
	if err := e.Register(context.Background(), "path", pathGraph(40)); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	e.beforeExecute = func() { <-gate }
	if got := e.Stats().MaxPending; got != depth+workers {
		t.Fatalf("Stats.MaxPending = %d, want %d", got, depth+workers)
	}

	ctx := context.Background()
	admitted := make(chan Result, depth+workers)
	for i := 0; i < depth+workers; i++ {
		go func() { admitted <- e.Match(ctx, slowReq()) }()
		waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == int64(i+1) })
	}
	if res := e.Match(ctx, slowReq()); !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("request %d past the bound: err = %v, want ErrOverloaded", depth+workers+1, res.Err)
	}
	close(gate)
	for i := 0; i < depth+workers; i++ {
		if res := <-admitted; res.Err != nil {
			t.Fatalf("admitted request failed: %v", res.Err)
		}
	}
	if st := e.Stats(); st.Shed != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", st.Shed)
	}
}

// TestBatchServedUnderDefaultAdmission: with the server's admission
// bound (queue + workers), an idle engine serves a batch of three times
// that many items whole. A batch is admitted once and feeds its items
// through a window of Workers tasks; admitting item by item shed every
// item past the bound while the slowed workers drained the first ones.
func TestBatchServedUnderDefaultAdmission(t *testing.T) {
	e := New(Options{Workers: 2, MaxPending: -1})
	defer e.Close()
	if err := e.Register(context.Background(), "path", pathGraph(40)); err != nil {
		t.Fatal(err)
	}
	e.beforeExecute = func() { time.Sleep(time.Millisecond) }
	bound := e.Stats().MaxPending
	reqs := make([]Request, 3*bound)
	for i := range reqs {
		reqs[i] = Request{Pattern: pathGraph(3), GraphName: "path", Algo: MaxCard, Xi: 1}
	}
	for i, r := range e.MatchBatch(context.Background(), reqs) {
		if r.Err != nil || !r.Holds {
			t.Fatalf("item %d of %d with admission bound %d: holds %v, err %v", i, len(reqs), bound, r.Holds, r.Err)
		}
	}
	if st := e.Stats(); st.Shed != 0 || st.Executed != uint64(len(reqs)) {
		t.Fatalf("stats %+v: want nothing shed and all %d items executed", st, len(reqs))
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
			errs[i] = e.Match(ctx, slowReq()).Err
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
	res := e.Match(ctx, slowReq())
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
	for i, r := range e.MatchBatch(ctx, []Request{slowReq(), slowReq()}) {
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
	if err := e.Register(context.Background(), "path", pathGraph(2500)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := e.Match(ctx, slowReq())
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

// TestQueuedCancelSkipsWork pins the queued and pickup cancellation
// points: a request whose context dies while its task waits in the
// queue returns ErrDeadline at once, and the worker that later picks
// the task up skips it before resolving the graph.
func TestQueuedCancelSkipsWork(t *testing.T) {
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	if err := e.Register(context.Background(), "path", pathGraph(40)); err != nil {
		t.Fatal(err)
	}
	// Hold the only worker so the cancelled task stays queued behind a
	// blocker. The cleanup releases it, so a failure cannot hang Close.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	e.beforeExecute = func() { <-gate }
	blocker := make(chan Result, 1)
	go func() { blocker <- e.Match(context.Background(), slowReq()) }()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan Result, 1)
	go func() { queued <- e.Match(ctx, slowReq()) }()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 2 })
	hits := e.Catalog().Stats().Hits
	cancel()
	select {
	case r := <-queued:
		if !errors.Is(r.Err, ErrDeadline) {
			t.Fatalf("queued request err = %v, want ErrDeadline", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return while the worker was held")
	}

	release()
	if b := <-blocker; b.Err != nil {
		t.Fatalf("blocker failed: %v", b.Err)
	}
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 0 })
	// Only the blocker resolved its graph; the skipped task returned
	// before touching the catalog.
	if got := e.Catalog().Stats().Hits - hits; got != 1 {
		t.Fatalf("catalog hits rose by %d after release, want 1 (the blocker only)", got)
	}
}

// TestCancelledResultNotInherited pins that a run after a cancelled run
// of the same request returns the reference answer: cancelling one
// request leaves nothing behind that a later identical request could
// observe, and the later result is bit-identical to an undisturbed run.
func TestCancelledResultNotInherited(t *testing.T) {
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	if err := e.Register(context.Background(), "path", pathGraph(220)); err != nil {
		t.Fatal(err)
	}
	req := slowReq()
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
	e := New(Options{Workers: 1, ExactNodeLimit: 2})
	t.Cleanup(e.Close)
	ctx := WithRequestID(context.Background(), "abc123")
	res := e.Match(ctx, Request{Pattern: cyclePattern(3), GraphName: "nope", Algo: MaxCard})
	if res.Err == nil {
		t.Fatal("expected unknown-graph error")
	}
	if got := res.Err.Error(); !containsStr(got, "[req abc123]") {
		t.Fatalf("error %q lacks request id", got)
	}
	// A batch item rejected at submission and a search rejected by
	// validation carry the id too.
	batch := e.MatchBatch(ctx, []Request{{Pattern: cyclePattern(3), GraphName: "nope", Algo: Decide}})
	if err := batch[0].Err; !errors.Is(err, ErrExactLimit) || !containsStr(err.Error(), "[req abc123]") {
		t.Fatalf("batch item error %v: want ErrExactLimit with the request id", err)
	}
	if err := e.Search(ctx, SearchRequest{}).Err; err == nil || !containsStr(err.Error(), "[req abc123]") {
		t.Fatalf("nil-pattern search error %v lacks request id", err)
	}
	if RequestID(ctx) != "abc123" {
		t.Fatal("RequestID round trip failed")
	}
	if RequestID(context.Background()) != "" {
		t.Fatal("RequestID of bare context should be empty")
	}
}

// waitFor polls cond until it holds, failing the test after timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
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
	if res := e.Match(context.Background(), slowReq()); res.Err != nil {
		t.Fatal(res.Err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("slowReq finished in %v; overload tests need a slower canonical request", d)
	}
	_ = fmt.Sprintf
}
