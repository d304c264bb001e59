package core

import (
	"context"

	"graphmatch/internal/trace"
)

// This file attaches the matcher's existing searchStats counters to the
// request trace. Instrumentation happens only at the entry points — one
// context lookup and one span per algorithm invocation — never inside
// greedyMatch or the backtracking recursion, so the hot path stays
// allocation-free whether or not tracing is enabled (pinned by
// TestGreedyMatchAllocationFree). The per-phase counters the span
// carries (initial pairs, trim rounds, greedy calls, conflict removals,
// augmentation) are the ones the matcher already maintains via the
// cancelStep-polled recursion, so tracing adds no new work to it.

// startMatchSpan opens the per-algorithm span under the request's trace
// and returns an end func that stamps the matcher's search stats and
// closes the span. The end func is safe to defer before
// recoverAbort: on a deadline abort it still runs (during unwinding),
// so the recorded trace shows how far the search got before it was
// cancelled.
func startMatchSpan(ctx context.Context, name string) func(*matcher) {
	sp := trace.SpanFromContext(ctx).Child(name)
	if !sp.Active() {
		return func(*matcher) {}
	}
	return func(mx *matcher) {
		st := mx.stats
		sp.SetInt("initial_pairs", int64(st.InitialPairs))
		sp.SetInt("outer_iterations", int64(st.OuterIterations))
		sp.SetInt("greedy_calls", int64(st.GreedyCalls))
		sp.SetInt("max_depth", int64(st.MaxDepth))
		sp.SetInt("conflicts_removed", int64(st.ConflictPairsRemoved))
		sp.SetInt("augmented_pairs", int64(st.AugmentedPairs))
		sp.SetInt("poll_steps", int64(mx.steps))
		sp.End()
	}
}
