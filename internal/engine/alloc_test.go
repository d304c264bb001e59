//go:build !race

package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// The allocation gates pin the hot path of a match through the engine:
// admission, the task and its completion signal, the worker hop and the
// matcher itself, on a 6-node path pattern against a 200-node path
// graph. Counted on one P with the collector off (pinAllocCounts), the
// counts are exact, and the limits are those counts: one allocation more
// on the hot path fails here, whichever P the worker runs on. The race
// detector allocates on its own, hence the build tag.
const (
	matchAllocLimit = 24
	batchAllocLimit = 92
)

func allocEngine(t *testing.T, noTrace bool) (*Engine, Request) {
	t.Helper()
	e := New(Options{Workers: 1, NoTrace: noTrace})
	t.Cleanup(e.Close)
	if err := e.Register(context.Background(), "path", pathGraph(200)); err != nil {
		t.Fatal(err)
	}
	req := Request{Pattern: pathGraph(6), GraphName: "path", Algo: MaxCard, Xi: 1}
	// The pooled matcher scratch grows over its first two uses in a
	// process; AllocsPerRun's own warm-up covers only one.
	if res := e.Match(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	return e, req
}

// pinAllocCounts runs the rest of the calling test on one P with the
// garbage collector off, so the pooled matcher scratch is always found —
// never missed on a P it was not put on, nor after a GC emptied the pool
// — and every count below is exact.
func pinAllocCounts(t *testing.T) {
	t.Helper()
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

func TestMatchAllocs(t *testing.T) {
	pinAllocCounts(t)
	e, req := allocEngine(t, false)
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		if res := e.Match(ctx, req); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	t.Logf("Match: %.0f allocations", got)
	if got > matchAllocLimit {
		t.Fatalf("Match allocates %.0f times, limit %d", got, matchAllocLimit)
	}
}

func TestMatchBatchAllocs(t *testing.T) {
	pinAllocCounts(t)
	e, req := allocEngine(t, false)
	ctx := context.Background()
	reqs := []Request{req, req, req, req}
	got := testing.AllocsPerRun(200, func() {
		for _, res := range e.MatchBatch(ctx, reqs) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	})
	t.Logf("MatchBatch of 4: %.0f allocations", got)
	if got > batchAllocLimit {
		t.Fatalf("MatchBatch of 4 allocates %.0f times, limit %d", got, batchAllocLimit)
	}
}

// TestUntracedAllocsEqualNoTrace holds tracing to its bargain: a Match
// or MatchBatch that carries no span allocates exactly as often with a
// flight recorder as with NoTrace, counted as exactly as the gates above.
func TestUntracedAllocsEqualNoTrace(t *testing.T) {
	pinAllocCounts(t)
	ctx := context.Background()
	var match, batch [2]float64
	for i, noTrace := range []bool{false, true} {
		e, req := allocEngine(t, noTrace)
		reqs := []Request{req, req, req, req}
		match[i] = testing.AllocsPerRun(200, func() { e.Match(ctx, req) })
		batch[i] = testing.AllocsPerRun(200, func() { e.MatchBatch(ctx, reqs) })
	}
	t.Logf("Match: %.0f allocations untraced, %.0f with NoTrace; MatchBatch of 4: %.0f and %.0f", match[0], match[1], batch[0], batch[1])
	if match[0] != match[1] || batch[0] != batch[1] {
		t.Fatal("untraced requests allocate differently from NoTrace")
	}
}
