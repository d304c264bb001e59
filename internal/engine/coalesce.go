package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"graphmatch/internal/graph"
	"graphmatch/internal/trace"
)

// patchCoalescer batches bursts of patches against the same graph into
// one catalog mutation. Every committed patch pays for closure delta
// maintenance, index maintenance, a WAL fsync and a search-index fold;
// under a mutation storm those per-commit costs dominate, and ten tiny
// patches composed into one (graph.MergePatches) cost one commit
// instead of ten. Submitters either wait for their batch to commit
// (the primary's PATCH path — the HTTP response still means "durable
// and visible") or fire-and-forget (the follower's replication apply,
// which must not stall the stream on every record).
//
// Per graph, at most one flusher goroutine is active: it collects the
// queued waiters, applies the merged patch, delivers results, and
// loops while more work arrived during the apply — a group-commit
// pattern. Batches are equivalent to sequential application by the
// MergePatches composition law; when a merge or a merged apply fails,
// the flusher falls back to applying the batch sequentially so
// per-patch error semantics are exactly those of the uncoalesced path.
type patchCoalescer struct {
	eng *Engine
	// max caps patches per batch.
	max int
	// beforeBatch, when set, runs on the flusher before it takes each
	// batch. Tests use it to hold the flusher while they queue the
	// patches a batch should contain; set it before the first patch.
	beforeBatch func()

	mu     sync.Mutex
	cond   *sync.Cond // signalled whenever a queue goes idle
	queues map[string]*patchQueue
	closed bool
	// err is the sticky failure of an asynchronous (fire-and-forget)
	// apply: the follower surfaces it on its next replication apply as
	// a state mismatch, forcing a resync.
	err error

	batches   atomic.Uint64 // multi-patch batches committed as one mutation
	coalesced atomic.Uint64 // patches that rode in those batches
}

// patchQueue is the pending work for one graph name.
type patchQueue struct {
	waiters  []*patchWaiter
	flushing bool
}

// patchWaiter is one submitted patch; done is nil for fire-and-forget
// submissions. ctx carries the submitter's trace span (never
// cancellation — a queued patch must still commit).
type patchWaiter struct {
	ctx  context.Context
	p    *graph.Patch
	done chan patchResult
}

type patchResult struct {
	g   *graph.Graph
	err error
}

func newPatchCoalescer(e *Engine, max int) *patchCoalescer {
	co := &patchCoalescer{eng: e, max: max, queues: make(map[string]*patchQueue)}
	co.cond = sync.NewCond(&co.mu)
	return co
}

// enqueue submits a patch. When wait is true it blocks until the
// patch's batch commits and returns the resulting graph; otherwise it
// returns immediately and a failure becomes the coalescer's sticky
// error.
func (co *patchCoalescer) enqueue(ctx context.Context, name string, p *graph.Patch, wait bool) (*graph.Graph, error) {
	w := &patchWaiter{ctx: ctx, p: p}
	if wait {
		w.done = make(chan patchResult, 1)
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, fmt.Errorf("engine: closed")
	}
	q := co.queues[name]
	if q == nil {
		q = &patchQueue{}
		co.queues[name] = q
	}
	q.waiters = append(q.waiters, w)
	if !q.flushing {
		q.flushing = true
		go co.flush(name, q)
	}
	co.mu.Unlock()
	if !wait {
		return nil, nil
	}
	res := <-w.done
	return res.g, res.err
}

// flush is the per-graph group-commit loop. It runs while the queue
// has work, then marks the queue idle and exits.
func (co *patchCoalescer) flush(name string, q *patchQueue) {
	for {
		if co.beforeBatch != nil {
			co.beforeBatch()
		}
		co.mu.Lock()
		batch := q.waiters
		if len(batch) > co.max {
			batch = batch[:co.max:co.max]
			q.waiters = append([]*patchWaiter(nil), q.waiters[co.max:]...)
		} else {
			q.waiters = nil
		}
		if len(batch) == 0 {
			q.flushing = false
			co.cond.Broadcast()
			co.mu.Unlock()
			return
		}
		co.mu.Unlock()
		co.apply(name, batch)
	}
}

// apply commits one batch: single patches go straight through, larger
// batches are composed with MergePatches against the currently
// committed graph. Any merge or merged-apply failure degrades to
// sequential application, whose per-patch outcomes are definitionally
// those of the uncoalesced path.
func (co *patchCoalescer) apply(name string, batch []*patchWaiter) {
	if len(batch) == 1 {
		g, err := co.eng.cat.ApplyCtx(waiterCtx(batch[0]), name, batch[0].p)
		co.deliver(batch, g, err)
		if err == nil {
			co.eng.maybeSnapshot()
		}
		return
	}
	// A merged batch is one catalog commit serving many requests; the
	// commit is attributed to the first waiter that carries a live
	// trace (a documented approximation — the others record only their
	// own wait), with the batch size as an attribute.
	bctx := batchCtx(batch)
	trace.SpanFromContext(bctx).SetInt("patch_batch", int64(len(batch)))
	patches := make([]*graph.Patch, len(batch))
	for i, w := range batch {
		patches[i] = w.p
	}
	base, err := co.eng.cat.Get(name)
	if err != nil {
		co.deliver(batch, nil, err)
		return
	}
	merged, err := graph.MergePatches(base, patches...)
	if err == nil && merged.Empty() {
		// The batch cancels out (e.g. add then delete): nothing to
		// commit, everyone observes the unchanged graph.
		co.batches.Add(1)
		co.coalesced.Add(uint64(len(batch)))
		co.deliver(batch, base, nil)
		return
	}
	if err == nil {
		var g *graph.Graph
		if g, err = co.eng.cat.ApplyCtx(bctx, name, merged); err == nil {
			co.batches.Add(1)
			co.coalesced.Add(uint64(len(batch)))
			co.deliver(batch, g, nil)
			co.eng.maybeSnapshot()
			return
		}
	}
	// Composition or the merged commit failed — some patch in the batch
	// is individually bad, or the graph changed under the merge base.
	// Replay sequentially so each submitter gets its own verdict.
	for _, w := range batch {
		g, err := co.eng.cat.ApplyCtx(waiterCtx(w), name, w.p)
		co.deliver([]*patchWaiter{w}, g, err)
		if err == nil {
			co.eng.maybeSnapshot()
		}
	}
}

// waiterCtx returns the waiter's context, or Background for
// fire-and-forget submissions enqueued without one.
func waiterCtx(w *patchWaiter) context.Context {
	if w.ctx != nil {
		return w.ctx
	}
	return context.Background()
}

// batchCtx picks the first waiter context carrying an active span.
func batchCtx(batch []*patchWaiter) context.Context {
	for _, w := range batch {
		if w.ctx != nil && trace.SpanFromContext(w.ctx).Active() {
			return w.ctx
		}
	}
	return context.Background()
}

// deliver hands a batch outcome to its waiters; fire-and-forget
// failures become the sticky error.
func (co *patchCoalescer) deliver(ws []*patchWaiter, g *graph.Graph, err error) {
	var sticky bool
	for _, w := range ws {
		if w.done != nil {
			w.done <- patchResult{g: g, err: err}
		} else if err != nil {
			sticky = true
		}
	}
	if sticky {
		co.mu.Lock()
		if co.err == nil {
			co.err = err
		}
		co.mu.Unlock()
	}
}

// stickyErr reports (without clearing) the first asynchronous apply
// failure; discard clears it.
func (co *patchCoalescer) stickyErr() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

// drain blocks until every queue is empty and no flusher is mid-apply:
// the catalog then reflects every patch submitted before the call.
func (co *patchCoalescer) drain() {
	co.mu.Lock()
	co.waitIdleLocked()
	co.mu.Unlock()
}

func (co *patchCoalescer) waitIdleLocked() {
	for {
		busy := false
		for _, q := range co.queues {
			if q.flushing || len(q.waiters) > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		co.cond.Wait()
	}
}

// discard drops every pending patch (failing its waiters), waits out
// in-flight applies, and clears the sticky error. The follower calls
// it before a resync replaces the whole catalog — pending patches
// target state that is about to vanish.
func (co *patchCoalescer) discard() {
	co.mu.Lock()
	for _, q := range co.queues {
		for _, w := range q.waiters {
			if w.done != nil {
				w.done <- patchResult{err: fmt.Errorf("engine: patch discarded by replica resync")}
			}
		}
		q.waiters = nil
	}
	co.waitIdleLocked()
	co.err = nil
	co.mu.Unlock()
}

// close rejects further submissions and drains what is queued.
func (co *patchCoalescer) close() {
	co.mu.Lock()
	co.closed = true
	co.waitIdleLocked()
	co.mu.Unlock()
}
