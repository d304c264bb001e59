//go:build !race

package engine

import (
	"context"
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

func allocEngine(t *testing.T) (*Engine, Request) {
	t.Helper()
	e := New(Options{Workers: 1})
	t.Cleanup(e.Close)
	if err := e.Register(context.Background(), "path", pathGraph(200)); err != nil {
		t.Fatal(err)
	}
	return e, Request{Pattern: pathGraph(6), GraphName: "path", Algo: MaxCard, Xi: 1}
}

func TestMatchAllocs(t *testing.T) {
	e, req := allocEngine(t)
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
	e, req := allocEngine(t)
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
