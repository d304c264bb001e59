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
// graph. The limits are the counts the engine had before Match, MatchBatch
// and search shared one fan-out; a change that makes a plain match pay for
// that sharing fails here. The race detector allocates on its own, hence
// the build tag.
const (
	matchAllocLimit = 25
	batchAllocLimit = 95
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

func TestMatchAllocs(t *testing.T) {
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
// flight recorder as with NoTrace. Counting runs on one P with no GC,
// so a pooled matcher scratch is never missed on a P it was not put
// on, nor after a GC emptied the pool.
func TestUntracedAllocsEqualNoTrace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
