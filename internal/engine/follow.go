package engine

import (
	"context"
	"errors"
	"fmt"

	"graphmatch/internal/graph"
	"graphmatch/internal/repl"
	"graphmatch/internal/store"
	"graphmatch/internal/trace"
)

// This file wires the engine into the WAL-shipping replication of
// internal/repl. A primary exposes its store and catalog as a
// repl.Source (ReplSource); a follower (Options.FollowURL) runs a
// repl.Follower whose Apply/Reset callbacks land every streamed record
// through the ordinary catalog paths — closures rebuilt, each new graph
// version summarised by the next search — and into the follower's own WAL, so a restarted follower
// resumes from its local tail instead of re-fetching history.

// ErrReadOnly rejects local mutations on a follower engine: the
// catalog is a replica of the primary's, and a local write would
// diverge it. The transport maps it to HTTP 421 with the primary's
// location.
var ErrReadOnly = errors.New("engine: read-only follower")

// PrimaryURL is the followed primary's base URL, empty on a
// non-follower.
func (e *Engine) PrimaryURL() string {
	if e.follower == nil {
		return ""
	}
	return e.primaryURL
}

// ReplStats snapshots the follower's replication state; ok is false on
// a non-follower.
func (e *Engine) ReplStats() (st repl.Stats, ok bool) {
	if e.follower == nil {
		return repl.Stats{}, false
	}
	return e.follower.Stats(), true
}

// ReplSource exposes the engine as a replication primary: the store
// whose WAL the stream ships and the catalog export that backs
// bootstraps. Nil without a store, and nil on a follower — chained
// replication is not supported (a follower's WAL appends do not run
// under the catalog lock, so the export-at-exact-seq contract the
// bootstrap relies on would not hold).
func (e *Engine) ReplSource() *repl.Source {
	if e.store == nil || e.follower != nil {
		return nil
	}
	return &repl.Source{Store: e.store, Export: e.cat.Export}
}

// startFollower launches the replication loop. Called at the end of
// Open, after replay and workers: the follower resumes from the local
// store's durable tail.
func (e *Engine) startFollower(opts Options) error {
	cfg := opts.follow
	cfg.Primary = opts.FollowURL
	cfg.Store = e.store
	cfg.Apply = e.applyReplicated
	cfg.Reset = e.resetReplicated
	f, err := repl.New(cfg)
	if err != nil {
		return err
	}
	e.follower = f
	e.initReplMetrics()
	f.Start()
	return nil
}

// applyReplicated is the follower's repl.Config.Apply: persist the op
// to the local WAL at the primary's seq, then commit it through the
// ordinary catalog path. Both run under snapMu so a concurrent local
// snapshot (explicit or background) can never capture the append
// without the commit — Snapshot's Rotate+Export also runs under
// snapMu, so the (state, seq) pair it writes is always consistent. A
// catalog rejection means local state the primary's log cannot
// reproduce: reported as repl.ErrStateMismatch, which makes the
// follower resync.
func (e *Engine) applyReplicated(op store.Op) error {
	// Re-parent the apply under the primary's trace context: the op
	// carries the originating request's traceparent (shipped verbatim
	// off the primary's WAL), so the follower's flight recorder files
	// this apply under the SAME trace id — `phom trace <id>` on either
	// node finds the two halves of the mutation.
	ctx := context.Background()
	sp := e.startRemoteSpan(op)
	if sp.Active() {
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	e.snapMu.Lock()
	asp := sp.Child("store.append")
	tm, err := e.store.AppendAt(op)
	if err != nil {
		e.snapMu.Unlock()
		sp.SetStr("error", err.Error())
		sp.End()
		return err
	}
	e.observeAppend(tm)
	asp.SetInt("seq", int64(op.Seq))
	asp.End()
	switch op.Kind {
	case store.OpRegister:
		err = e.cat.RegisterCtx(ctx, op.Name, op.Graph)
	case store.OpRemove:
		err = e.cat.RemoveCtx(ctx, op.Name)
	case store.OpPatch:
		_, err = e.cat.ApplyCtx(ctx, op.Name, op.Patch)
	default:
		err = fmt.Errorf("unknown op kind %d", op.Kind)
	}
	e.snapMu.Unlock()
	if err != nil {
		sp.SetStr("error", err.Error())
		sp.End()
		return fmt.Errorf("%w: %v", repl.ErrStateMismatch, err)
	}
	sp.End()
	e.maybeSnapshot()
	return nil
}

// startRemoteSpan opens a repl.apply trace for a streamed op that
// carries the primary's traceparent; inert when the op is untraced or
// the follower's recorder is disabled.
func (e *Engine) startRemoteSpan(op store.Op) trace.Span {
	if e.tracer == nil || op.Trace == "" {
		return trace.Span{}
	}
	id, parent, ok := trace.ParseTraceparent(op.Trace)
	if !ok {
		return trace.Span{}
	}
	sp := e.tracer.StartRemote(id, parent, "repl.apply", "")
	sp.SetInt("seq", int64(op.Seq))
	sp.SetStr("op", opKindName(op.Kind))
	sp.SetStr("graph", op.Name)
	return sp
}

func opKindName(k store.OpKind) string {
	switch k {
	case store.OpRegister:
		return "register"
	case store.OpRemove:
		return "remove"
	case store.OpPatch:
		return "patch"
	}
	return "unknown"
}

// resetReplicated is the follower's repl.Config.Reset: land the local
// store on a snapshot of the bootstrap state at the primary's seq —
// discarding all local history — and swap the catalog to match. Under
// snapMu for the same reason as applyReplicated.
func (e *Engine) resetReplicated(state map[string]*graph.Graph, seq uint64) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if err := e.store.ReplaceWithSnapshot(state, seq); err != nil {
		return err
	}
	if err := e.cat.Replace(state); err != nil {
		return fmt.Errorf("%w: %v", repl.ErrStateMismatch, err)
	}
	return nil
}
