package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"

	"graphmatch/internal/graph"
	"graphmatch/internal/store"
	"graphmatch/internal/trace"
)

// ErrNoStore rejects persistence operations (Snapshot, store stats) on
// an engine that was opened without Options.StorePath.
var ErrNoStore = errors.New("engine: no store configured")

// persister adapts the store to the catalog's write-ahead callback.
// Its methods run under the catalog lock, so the WAL order is exactly
// the mutation order and an acknowledged mutation is durable (Append
// fsyncs) before the registry commits it.
type persister struct{ st *store.Store }

// append logs op, attributing the durability cost to the request's
// trace when ctx carries one: the op is stamped with the request's
// traceparent (which the replication stream ships verbatim, so
// followers can re-parent their apply spans under the primary's trace)
// and a store.append span records the WAL write and fsync split.
func (p persister) append(ctx context.Context, op store.Op) error {
	sp := trace.SpanFromContext(ctx)
	if !sp.Active() {
		_, err := p.st.Append(op)
		return err
	}
	op.Trace = sp.Traceparent()
	ssp := sp.Child("store.append")
	seq, tm, err := p.st.AppendTimed(op)
	if err != nil {
		ssp.SetStr("error", err.Error())
	} else {
		ssp.SetInt("seq", int64(seq))
	}
	ssp.SetInt("fsync_us", tm.Fsync.Microseconds())
	ssp.End()
	return err
}

func (p persister) LogRegister(ctx context.Context, name string, g *graph.Graph) error {
	return p.append(ctx, store.Op{Kind: store.OpRegister, Name: name, Graph: g})
}

func (p persister) LogRemove(ctx context.Context, name string) error {
	return p.append(ctx, store.Op{Kind: store.OpRemove, Name: name})
}

func (p persister) LogPatch(ctx context.Context, name string, pt *graph.Patch) error {
	return p.append(ctx, store.Op{Kind: store.OpPatch, Name: name, Patch: pt})
}

// openStore opens and replays the store during engine boot. The ops
// are first folded to their final state — a graph registered once and
// patched N times yields one graph, not N+1 catalog mutations — and
// each survivor is registered through the ordinary catalog path, so
// closures rebuild and the search index reindexes exactly once
// per graph; by the time Open returns, the recovered catalog is warm
// and the HTTP listener can accept traffic. The persister is installed
// only after the replay, so recovered state is not re-logged — and not
// at all on a follower, whose ops are logged by the replication apply
// path instead.
//
// progress (Options.ReplayProgress), when non-nil, observes the work:
// done counts snapshot graphs and WAL ops as the fold consumes them,
// then catalog registrations; total is extended once the fold reveals
// how many survivors there are to register.
func (e *Engine) openStore(path string, progress func(done, total int)) error {
	st, err := store.Open(path)
	if err != nil {
		return err
	}
	snapGraphs, walOps := st.ReplayPlan()
	done, total := 0, snapGraphs+walOps
	report := func() {
		if progress != nil {
			progress(done, total)
		}
	}
	report()
	state, _, err := st.FoldStateObserved(func() { done++; report() })
	if err != nil {
		st.Close()
		return fmt.Errorf("engine: replaying %s: %w", path, err)
	}
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	total = done + len(names)
	report()
	for _, name := range names {
		if err := e.cat.Register(name, state[name]); err != nil {
			st.Close()
			return fmt.Errorf("engine: replaying %s: %w", path, err)
		}
		done++
		report()
	}
	e.store = st
	if e.primaryURL == "" {
		e.cat.SetPersister(persister{st: st})
	}
	return nil
}

// ApplyPatch edits a registered data graph in place (copy-on-write
// underneath): the patched graph is immediately matchable and
// searchable, every closure and index derived from the old version is
// invalidated, and — when the engine has a store — the patch is logged
// and fsynced before it is acknowledged. See graph.Patch for the edit
// semantics.
func (e *Engine) ApplyPatch(name string, p *graph.Patch) (*graph.Graph, error) {
	return e.ApplyPatchCtx(context.Background(), name, p)
}

// ApplyPatchCtx is ApplyPatch with a request context for trace
// attribution: the catalog commit and WAL append are recorded as
// spans under the request's trace, and the logged op carries the
// request's traceparent so followers can re-parent their apply.
func (e *Engine) ApplyPatchCtx(ctx context.Context, name string, p *graph.Patch) (*graph.Graph, error) {
	if e.follower != nil {
		return nil, fmt.Errorf("%w: patch %q on %s", ErrReadOnly, name, e.primaryURL)
	}
	if e.coalescer != nil {
		// The batch path: waits until the batch containing this patch
		// commits, so the acknowledgement still means durable and
		// visible. maybeSnapshot runs inside the coalescer, per commit.
		return e.coalescer.enqueue(ctx, name, p, true)
	}
	g, err := e.cat.ApplyCtx(ctx, name, p)
	if err != nil {
		return nil, err
	}
	e.maybeSnapshot()
	return g, nil
}

// Snapshot compacts the store: it rotates the WAL while the registry
// is briefly locked (so state and sequence number agree exactly),
// writes every registered graph to a new snapshot file, and deletes
// the WAL segments the snapshot folded in — bounding the next boot's
// replay work. It fails with ErrNoStore when the engine has no store.
func (e *Engine) Snapshot() (store.Stats, error) {
	if e.store == nil {
		return store.Stats{}, ErrNoStore
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	// On a follower, patch commits are decoupled from WAL appends (the
	// coalescer applies them after the replication loop has already
	// persisted the records), so the catalog may lag the WAL tail.
	// Drain it so the exported state matches the rotated sequence
	// number; snapMu is held, so no new replicated records can arrive
	// mid-drain. A primary never needs (or safely could do) this: its
	// WAL appends happen inside each catalog commit, so state and seq
	// always agree, and draining under a sustained storm would stall
	// snapshots behind an ever-refilling queue.
	if e.follower != nil && e.coalescer != nil {
		e.coalescer.drain()
	}
	var (
		seq    uint64
		sealed []string
		rerr   error
	)
	state := e.cat.Export(func() { seq, sealed, rerr = e.store.Rotate() })
	if rerr != nil {
		return store.Stats{}, rerr
	}
	if err := e.store.WriteSnapshot(state, seq, sealed); err != nil {
		return store.Stats{}, err
	}
	return e.store.Stats(), nil
}

// StoreStats snapshots the store counters; ok is false when the engine
// has no store.
func (e *Engine) StoreStats() (st store.Stats, ok bool) {
	if e.store == nil {
		return store.Stats{}, false
	}
	return e.store.Stats(), true
}

// maybeSnapshot triggers a background snapshot when the WAL has grown
// past Options.SnapshotEvery since the last one. It runs after a
// mutation is acknowledged, off the caller's path: snapshots are
// capacity management, not durability (the WAL already is), so they
// must not add latency to mutations. snapMu serialises concurrent
// triggers; snapPending collapses a burst into one pass.
func (e *Engine) maybeSnapshot() {
	if e.store == nil || e.snapshotEvery <= 0 {
		return
	}
	if e.store.SinceSnapshot() < e.snapshotEvery {
		return
	}
	if !e.snapPending.CompareAndSwap(false, true) {
		return
	}
	// Register with snapWg under the closed check: Close flips closed
	// (under sendMu) before it waits on snapWg, so either this Add is
	// observed by that Wait, or closed is observed here and no snapshot
	// spawns against a closing store — never an Add racing the Wait.
	e.sendMu.RLock()
	if e.closed {
		e.sendMu.RUnlock()
		e.snapPending.Store(false)
		return
	}
	e.snapWg.Add(1)
	e.sendMu.RUnlock()
	go func() {
		defer e.snapWg.Done()
		defer e.snapPending.Store(false)
		// Re-check under the trigger: the burst that tripped this may
		// already have been folded in by a racing explicit Snapshot.
		if e.store.SinceSnapshot() < e.snapshotEvery {
			return
		}
		if _, err := e.Snapshot(); err != nil {
			log.Printf("engine: background snapshot: %v", err)
		}
	}()
}
