// Package engine is the concurrent batch scheduler of the serving
// subsystem. It sits between the transport (internal/httpapi, or direct
// library use via graphmatch.Engine) and the matching core:
//
//   - a bounded worker pool executes match requests concurrently, so a
//     burst of requests saturates the CPUs instead of serialising;
//   - duplicate in-flight requests are coalesced: requests with the
//     same (pattern, graph, algorithm, ξ, path limit, similarity) key
//     attach to the one running computation and share its result;
//   - every request resolves its data graph and reachability index
//     through the shared catalog, so the expensive transitive closure
//     of each registered graph is computed once, not per request.
//
// Requests carry everything Fan et al.'s algorithms need: the pattern
// G1, the name of a registered data graph G2, the algorithm (the
// paper's compMaxCard/compMaxCard1-1/compMaxSim/compMaxSim1-1, the
// exact decision procedures, or the graph-simulation baseline), the
// similarity threshold ξ, and the optional bounded-path variant.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/metrics"
	"graphmatch/internal/repl"
	"graphmatch/internal/search"
	"graphmatch/internal/shingle"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/simulation"
	"graphmatch/internal/store"
	"graphmatch/internal/trace"
)

// Algorithm names one of the matching procedures the engine can run.
type Algorithm string

// The supported algorithms. The four comp* values are the paper's
// approximation algorithms (Figs. 3–4); Decide and Decide11 are the
// exact exponential procedures; Simulation is the conventional
// graph-simulation baseline of the experimental comparison.
const (
	MaxCard    Algorithm = "maxcard"
	MaxCard11  Algorithm = "maxcard11"
	MaxSim     Algorithm = "maxsim"
	MaxSim11   Algorithm = "maxsim11"
	Decide     Algorithm = "decide"
	Decide11   Algorithm = "decide11"
	Simulation Algorithm = "simulation"
)

// Algorithms lists every supported algorithm.
var Algorithms = []Algorithm{MaxCard, MaxCard11, MaxSim, MaxSim11, Decide, Decide11, Simulation}

// ParseAlgorithm validates a wire-format algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	a := Algorithm(s)
	for _, known := range Algorithms {
		if a == known {
			return a, nil
		}
	}
	return "", fmt.Errorf("engine: unknown algorithm %q", s)
}

// SimKind selects how the node-similarity matrix mat() is derived.
type SimKind string

// Similarity kinds. SimLabel is label equality (the paper's Fig. 2
// convention); SimContent is shingle resemblance of node contents (the
// Web-matching convention of Section 6).
const (
	SimLabel   SimKind = "label"
	SimContent SimKind = "content"
)

// Request is one unit of work: match Pattern against the registered
// graph GraphName.
type Request struct {
	// Pattern is G1. The engine normalises it at submission; it must
	// not be mutated while the request is in flight.
	Pattern *graph.Graph
	// GraphName names a data graph registered with the catalog.
	GraphName string
	// Algo selects the matching procedure.
	Algo Algorithm
	// Xi is the node-similarity threshold ξ ∈ [0, 1].
	Xi float64
	// PathLimit bounds pattern-edge images to paths of at most k hops;
	// 0 means unbounded (the paper's p-hom semantics), 1 demands
	// edge-to-edge images.
	PathLimit int
	// Sim selects the similarity matrix; empty defaults to SimLabel.
	Sim SimKind
}

// Result carries the outcome of one request.
type Result struct {
	// Mapping is the computed (partial) node mapping σ. Nil for the
	// simulation baseline and for failed decisions.
	Mapping core.Mapping
	// Holds is the verdict of decide/decide11/simulation; for the
	// approximation algorithms it reports whether σ is total.
	Holds bool
	// QualCard and QualSim are the paper's Section 3.3 quality metrics
	// of the mapping.
	QualCard float64
	QualSim  float64
	// Elapsed is the execution wall time (matrix construction,
	// closure lookup, and matching; zero extra for coalesced waiters).
	Elapsed time.Duration
	// Coalesced reports that this request attached to an identical
	// in-flight computation instead of running its own.
	Coalesced bool
	// Err is the per-request failure, if any (unknown graph, invalid
	// algorithm, cancelled context).
	Err error
}

// Stats is a point-in-time snapshot of engine throughput counters.
type Stats struct {
	// Requests counts submissions, including coalesced ones.
	Requests uint64 `json:"requests"`
	// Executed counts computations actually run by workers.
	Executed uint64 `json:"executed"`
	// Coalesced counts requests that shared an in-flight computation.
	Coalesced uint64 `json:"coalesced"`
	// Errors counts requests that finished with a non-nil error.
	Errors uint64 `json:"errors"`
	// Shed counts requests rejected by admission control.
	Shed uint64 `json:"shed"`
	// Pending is the point-in-time count of admitted tasks queued or
	// running.
	Pending int64 `json:"pending"`
	// Batches counts MatchBatch calls.
	Batches uint64 `json:"batches"`
	// Searches counts Search calls (catalog-wide top-k rankings).
	Searches uint64 `json:"searches"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// PatchBatches counts multi-patch batches the coalescer committed
	// as single catalog mutations; PatchesCoalesced counts the patches
	// that rode in them. Zero when batching is disabled.
	PatchBatches     uint64 `json:"patch_batches"`
	PatchesCoalesced uint64 `json:"patches_coalesced"`
	// SearchIndexPendingDeltas is the point-in-time count of committed
	// patches the search index has queued and not yet folded into a
	// graph summary; bounded per summarised graph, 0 while nothing has
	// been searched.
	SearchIndexPendingDeltas int `json:"search_index_pending_deltas"`
}

// ErrExactLimit rejects an exact-decision request whose pattern
// exceeds the engine's configured bound (see Options.ExactNodeLimit).
var ErrExactLimit = errors.New("engine: pattern too large for exact decision")

// ErrOverloaded rejects a request shed by admission control: the
// engine already has Options.MaxPending tasks admitted and refusing
// fast beats queueing into a latency collapse. The transport maps it
// to HTTP 429 with a Retry-After hint.
var ErrOverloaded = errors.New("engine: overloaded, request shed")

// ErrDeadline reports that a request's context was cancelled or its
// deadline expired before the computation finished — whether while
// queued, mid-recursion in the matcher, or during a closure build. It
// is the core package's sentinel re-exported so transports need only
// one errors.Is target; httpapi maps it to HTTP 504.
var ErrDeadline = core.ErrDeadline

// Options configures a new Engine.
type Options struct {
	// Workers sizes the pool; defaults to GOMAXPROCS.
	Workers int
	// MaxClosures bounds resident reachability indexes in the catalog;
	// defaults to catalog.DefaultMaxClosures.
	MaxClosures int
	// MaxClosureBytes bounds the catalog's resident closure + index
	// bytes; LRU entries are evicted past it. 0 means unbounded.
	MaxClosureBytes int64
	// ReachTier selects the reachability-index tier the catalog builds
	// for registered graphs: closure.PolicyAuto (the default — dense
	// rows while they fit DenseMaxBytes, candidate-sparse beyond),
	// closure.PolicyDense or closure.PolicySparse.
	ReachTier closure.TierPolicy
	// DenseMaxBytes overrides the auto-tier threshold; 0 keeps
	// closure.DefaultDenseMaxBytes.
	DenseMaxBytes int
	// QueueDepth bounds pending tasks before Match blocks; defaults to
	// 4 × Workers.
	QueueDepth int
	// MaxPending enables load-shedding admission control: when more
	// than this many admitted tasks are queued or running, new
	// non-coalesced submissions fail immediately with ErrOverloaded
	// instead of blocking on the queue. Coalesced requests always
	// attach (they add no work). 0 — the library default — disables
	// shedding and preserves the blocking-submit behaviour; servers
	// exposed to untrusted load should set it (phomd does, to
	// QueueDepth + Workers). Keeping MaxPending ≤ QueueDepth + Workers
	// guarantees an admitted task's queue send never blocks.
	MaxPending int
	// ExactNodeLimit, when positive, rejects Decide/Decide11 requests
	// whose pattern has more nodes — those procedures are exponential,
	// and while a context deadline now aborts them mid-recursion, a
	// request submitted without one can still pin a worker for a long
	// time. 0 means unlimited (library default); servers exposed to
	// untrusted clients should set it (phomd does).
	ExactNodeLimit int
	// SearchMaxCandidates is the default stage-1 candidate cap for
	// Search requests that leave MaxCandidates at 0. Non-positive
	// means unlimited.
	SearchMaxCandidates int
	// SearchMinResemblance is the default stage-1 prune threshold for
	// Search requests that leave MinResemblance at 0. Non-positive
	// keeps every graph (the prefilter then only orders candidates,
	// never drops them, so search is exactly equivalent to a
	// brute-force scan).
	SearchMinResemblance float64
	// StorePath, when non-empty, makes the catalog durable: mutations
	// (Register, Remove, ApplyPatch) are written to a WAL in this
	// directory and fsynced before they are acknowledged, and Open
	// replays snapshot + WAL to rebuild the catalog — closure tiers and
	// search index included — before returning. Engines with a
	// StorePath must be created with Open, not New.
	StorePath string
	// SnapshotEvery compacts the WAL into a fresh snapshot after this
	// many logged mutations (in the background, off the mutation path).
	// Non-positive disables automatic snapshots; explicit Snapshot
	// calls still work.
	SnapshotEvery int
	// FollowURL, when non-empty, runs the engine as a read-only replica
	// of the phomd primary at this base URL: after the local replay the
	// engine tails the primary's WAL stream (see internal/repl),
	// applying every record through the ordinary catalog path and
	// persisting it to its own store, so restarts resume from the local
	// tail. Requires StorePath. Local mutations (Register, Remove,
	// ApplyPatch) fail with ErrReadOnly.
	FollowURL string
	// FollowClient issues the replication stream requests; nil means a
	// default client. Tests inject a fault transport here.
	FollowClient *http.Client
	// FollowStallTimeout, FollowMinBackoff and FollowMaxBackoff tune
	// the follower's stall detector and reconnect schedule; zero keeps
	// the repl package defaults.
	FollowStallTimeout time.Duration
	FollowMinBackoff   time.Duration
	FollowMaxBackoff   time.Duration
	// ReplayProgress, when non-nil, observes boot-time store replay:
	// it is called as (done, total) work units — snapshot graphs, WAL
	// ops, then catalog registrations — so a boot-phase handler can
	// derive a Retry-After estimate. total may grow between calls (the
	// registration count is only known once the fold finishes).
	ReplayProgress func(done, total int)
	// PatchCoalesceCount enables patch batching: bursts of ApplyPatch
	// calls (and, on a follower, replicated patch records) against the
	// same graph are composed with graph.MergePatches and committed as
	// one catalog mutation — one closure delta, one WAL fsync, one
	// search-index fold per batch instead of per patch. The value caps
	// patches per batch. Values ≤ 1 disable batching unless
	// PatchCoalesceWindow is set (an unbounded batch then).
	PatchCoalesceCount int
	// PatchCoalesceWindow, when positive, makes each batch wait this
	// long for a burst to accumulate before committing — higher
	// throughput under storms at the cost of added patch latency. 0
	// (the default) is pure group commit: patches batch only while a
	// previous commit is in flight, adding no latency when idle.
	PatchCoalesceWindow time.Duration
	// ClosureDeltaBudget tunes the catalog's incremental closure
	// maintenance on patches: 0 picks a budget proportional to the
	// graph (the default), positive values override it, and negative
	// values disable incremental maintenance entirely — every patch
	// rebuilds closures from scratch (the benchmark baseline).
	ClosureDeltaBudget int
	// NoTrace disables the flight recorder entirely: Tracer() returns
	// nil and no spans are ever recorded, even for requests that carry
	// a traceparent. Requests without a span in their context already
	// skip all span work (one context lookup per layer), so this
	// matters mainly for embedders that bring their own tracing.
	NoTrace bool
	// TraceCapacity sizes the flight recorder's ring of recently
	// completed traces; 0 keeps trace.DefaultCapacity.
	TraceCapacity int
	// TraceSlowThreshold is the latency above which a completed trace
	// is retained in the recorder's slow ring, surviving eviction by
	// faster traffic; 0 keeps trace.DefaultSlowThreshold.
	TraceSlowThreshold time.Duration
}

// reqKey identifies a computation for coalescing. The pattern is
// represented by a collision-resistant digest of its full content so
// two structurally identical patterns coalesce even when they are
// distinct objects (e.g. decoded from separate HTTP requests).
type reqKey struct {
	pattern   [sha256.Size]byte
	graphName string
	algo      Algorithm
	xi        float64
	pathLimit int
	sim       SimKind
}

// task is one scheduled computation plus its completion signal and
// its cancellation state. The task owns a private context derived from
// Background — never from any single waiter's context, because
// coalesced peers with laxer deadlines must not die with the first
// impatient waiter. waiters refcounts the attached requests; the last
// one to abandon the task cancels its context, which the executing
// matcher observes cooperatively (core's *Ctx entry points).
type task struct {
	req      Request
	prep     *prepared
	key      reqKey
	done     chan struct{}
	res      Result
	ctx      context.Context
	cancel   context.CancelFunc
	waiters  atomic.Int32
	enqueued time.Time
	// span is the submitting request's engine.match span (inert when
	// the submitter was untraced). The worker parents queue-wait and
	// execution spans under it; coalesced waiters do not get their own
	// execution spans — they record the owner's trace id instead.
	span trace.Span
}

// attach registers one more waiter. It fails when the refcount already
// hit zero — every previous waiter gave up and the task's context is
// (or is about to be) cancelled — in which case the caller must start
// a fresh task rather than inherit a doomed result.
func (t *task) attach() bool {
	for {
		n := t.waiters.Load()
		if n <= 0 {
			return false
		}
		if t.waiters.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// detach drops one waiter, cancelling the task when nobody is left to
// consume its result.
func (t *task) detach() {
	if t.waiters.Add(-1) == 0 {
		t.cancel()
	}
}

// Engine schedules match requests over a shared catalog. Create one
// with New; it is safe for concurrent use. Close releases the workers.
type Engine struct {
	cat   *catalog.Catalog
	queue chan *task
	wg    sync.WaitGroup

	exactLimit int

	// searchIdx is the stage-1 candidate index of the search subsystem;
	// it observes catalog mutations through the mutation hook, so it is
	// coherent with Register/Remove by construction.
	searchIdx        *search.Index
	searchMaxCand    int
	searchMinResembl float64

	mu       sync.Mutex
	inflight map[reqKey]*task

	// finishMu serialises pattern normalisation: Finish mutates the
	// graph when it is not yet clean, and two concurrent submissions
	// may legitimately share one pattern object.
	finishMu sync.Mutex
	// prepares counts pattern preparations (see prepare), for the test
	// that a fan-out prepares its pattern once.
	prepares atomic.Uint64

	// beforeExecute, when set, runs on the worker between picking a task
	// up and executing it. Tests use it to hold a worker still while they
	// queue work behind it; set it before the first submission.
	beforeExecute func()

	// sendMu serialises queue sends against Close: submitters hold the
	// read side across the check-closed + send pair, so the channel is
	// never closed with a send in flight.
	sendMu sync.RWMutex
	closed bool

	// store is the durability subsystem (nil without Options.StorePath):
	// the catalog's persister appends every mutation to its WAL, and
	// Snapshot compacts it. snapMu serialises snapshots (explicit and
	// background) and holds them off during Close; snapPending collapses
	// concurrent background triggers into one.
	store         *store.Store
	snapshotEvery int
	snapMu        sync.Mutex
	snapWg        sync.WaitGroup
	snapPending   atomic.Bool

	// Follower mode (Options.FollowURL): the repl loop tailing the
	// primary, and the primary's base URL for 421 redirects. Both are
	// set once in Open and never change.
	follower   *repl.Follower
	primaryURL string

	// coalescer batches patch bursts per graph (see Options.
	// PatchCoalesceCount); nil when batching is disabled, in which case
	// patches commit one at a time.
	coalescer *patchCoalescer

	// tracer is the flight recorder (nil with Options.NoTrace):
	// completed request traces land here, queryable through
	// GET /debug/traces and the explain path.
	tracer *trace.Recorder

	// Admission control: pending counts admitted tasks (queued +
	// running, coalesced attaches excluded); maxPending > 0 sheds past
	// the bound.
	maxPending int
	pending    atomic.Int64
	shed       atomic.Uint64

	requests  atomic.Uint64
	executed  atomic.Uint64
	coalesced atomic.Uint64
	errors    atomic.Uint64
	batches   atomic.Uint64
	searches  atomic.Uint64
	workers   int

	// reg is the process-wide metrics registry the m* instruments
	// register into.
	reg               *metrics.Registry
	mTaskWait         *metrics.Histogram
	mTaskRun          *metrics.Histogram
	mSearchCandidates *metrics.Histogram
	mSearchPruneRatio *metrics.Histogram
	mSearchStage1     *metrics.Histogram
	mSearchStage2     *metrics.Histogram
}

// New starts an engine with the given options. It panics when
// Options.StorePath is set and opening or replaying the store fails —
// persistent engines should use Open, which returns that error.
func New(opts Options) *Engine {
	e, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Open starts an engine. When Options.StorePath is set, the persisted
// catalog is replayed — graphs registered, patches applied, closures
// and the search index rebuilt — before Open returns, so a server can
// bind its listener only once the recovered engine is ready to serve.
func Open(opts Options) (*Engine, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	e := &Engine{
		cat: catalog.New(opts.MaxClosures,
			catalog.WithMaxBytes(opts.MaxClosureBytes),
			catalog.WithTierPolicy(opts.ReachTier),
			catalog.WithDenseMaxBytes(opts.DenseMaxBytes),
			catalog.WithDeltaBudget(opts.ClosureDeltaBudget)),
		queue:            make(chan *task, depth),
		inflight:         make(map[reqKey]*task),
		workers:          workers,
		exactLimit:       opts.ExactNodeLimit,
		maxPending:       opts.MaxPending,
		searchMaxCand:    opts.SearchMaxCandidates,
		searchMinResembl: opts.SearchMinResemblance,
		snapshotEvery:    opts.SnapshotEvery,
		reg:              metrics.NewRegistry(),
	}
	if opts.FollowURL != "" && opts.StorePath == "" {
		return nil, fmt.Errorf("engine: FollowURL requires StorePath (the follower persists the stream to its own WAL)")
	}
	if opts.PatchCoalesceCount > 1 || opts.PatchCoalesceWindow > 0 {
		e.coalescer = newPatchCoalescer(e, opts.PatchCoalesceWindow, opts.PatchCoalesceCount)
	}
	if !opts.NoTrace {
		e.tracer = trace.NewRecorder(opts.TraceCapacity, opts.TraceSlowThreshold)
	}
	e.initMetrics()
	e.searchIdx = search.NewIndex(e.cat)
	if opts.StorePath != "" {
		// primaryURL is set before the replay so openStore knows not to
		// install the persister: a follower's ops are logged by the
		// replication apply path, never by the catalog.
		e.primaryURL = strings.TrimRight(opts.FollowURL, "/")
		if err := e.openStore(opts.StorePath, opts.ReplayProgress); err != nil {
			return nil, err
		}
		e.initStoreMetrics()
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	if opts.FollowURL != "" {
		if err := e.startFollower(opts); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// Catalog exposes the underlying graph registry (for stats endpoints
// and tests).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Tracer exposes the flight recorder, or nil when Options.NoTrace
// disabled it. The HTTP layer starts root spans against it and serves
// its contents on GET /debug/traces.
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// Register adds a data graph to the catalog and precomputes its shared
// closure. When the engine has a store, the registration is logged and
// fsynced before it is acknowledged. See catalog.Catalog.Register for
// ownership rules.
func (e *Engine) Register(name string, g *graph.Graph) error {
	return e.RegisterCtx(context.Background(), name, g)
}

// RegisterCtx is Register with a request context for trace
// attribution (catalog commit and WAL append spans).
func (e *Engine) RegisterCtx(ctx context.Context, name string, g *graph.Graph) error {
	if e.follower != nil {
		return fmt.Errorf("%w: register %q on %s", ErrReadOnly, name, e.primaryURL)
	}
	if err := e.cat.RegisterCtx(ctx, name, g); err != nil {
		return err
	}
	e.maybeSnapshot()
	return nil
}

// Remove drops a registered data graph and every cached closure and
// index derived from it. In-flight requests against the graph finish
// against the state they already resolved. With a store, the removal
// is durable before it is acknowledged.
func (e *Engine) Remove(name string) error {
	return e.RemoveCtx(context.Background(), name)
}

// RemoveCtx is Remove with a request context for trace attribution.
func (e *Engine) RemoveCtx(ctx context.Context, name string) error {
	if e.follower != nil {
		return fmt.Errorf("%w: remove %q on %s", ErrReadOnly, name, e.primaryURL)
	}
	if err := e.cat.RemoveCtx(ctx, name); err != nil {
		return err
	}
	e.maybeSnapshot()
	return nil
}

// Close drains the pool and, when the engine has a store, fsyncs and
// closes the WAL — after Close returns, no acknowledged mutation can
// be lost and no tail record is in flight. Pending tasks complete;
// subsequent Match calls fail. Close is idempotent.
func (e *Engine) Close() {
	e.sendMu.Lock()
	if e.closed {
		e.sendMu.Unlock()
		return
	}
	e.closed = true
	e.sendMu.Unlock()
	// Stop the follower first: its apply path writes the store and
	// triggers snapshots, so no replication work may be in flight when
	// the store closes below.
	if e.follower != nil {
		e.follower.Stop()
	}
	// With the follower stopped and closed set, no new patches can be
	// submitted; flush what the coalescer still holds before the store
	// goes away so every accepted patch commits (and, on a primary, is
	// logged) by the time Close returns.
	if e.coalescer != nil {
		e.coalescer.close()
	}
	close(e.queue)
	e.wg.Wait()
	if e.store != nil {
		// Let an already-triggered background snapshot finish (snapWg),
		// and hold snapMu so no snapshot can be mid-write while the store
		// closes underneath it.
		e.snapWg.Wait()
		e.snapMu.Lock()
		if err := e.store.Close(); err != nil {
			log.Printf("engine: closing store: %v", err)
		}
		e.snapMu.Unlock()
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Requests:  e.requests.Load(),
		Executed:  e.executed.Load(),
		Coalesced: e.coalesced.Load(),
		Errors:    e.errors.Load(),
		Shed:      e.shed.Load(),
		Pending:   e.pending.Load(),
		Batches:   e.batches.Load(),
		Searches:  e.searches.Load(),
		Workers:   e.workers,

		SearchIndexPendingDeltas: e.searchIdx.PendingDeltas(),
	}
	if e.coalescer != nil {
		s.PatchBatches = e.coalescer.batches.Load()
		s.PatchesCoalesced = e.coalescer.coalesced.Load()
	}
	return s
}

// Match schedules one request and waits for its result. An
// already-expired context is rejected before any work is enqueued; a
// context that dies while the request is queued or running detaches
// the waiter, and when it was the last one the computation itself is
// cancelled cooperatively (coalesced peers keep it alive as long as
// any of them still wants the result). Both cases return ErrDeadline.
func (e *Engine) Match(ctx context.Context, req Request) Result {
	// The engine.match span covers validation, queueing and execution;
	// shed and deadline outcomes are recorded on it so a 429/504 is
	// attributable in the flight recorder. One context lookup when the
	// request is untraced.
	msp := trace.SpanFromContext(ctx).Child("engine.match")
	if msp.Active() {
		msp.SetStr("algo", string(req.Algo))
		msp.SetStr("graph", req.GraphName)
	}
	if err := ctx.Err(); err != nil {
		e.requests.Add(1)
		e.errors.Add(1)
		msp.SetStr("cancel_point", "pre-submit")
		msp.End()
		return Result{Err: decorate(ctx, fmt.Errorf("%w: %w", ErrDeadline, err))}
	}
	t, coalesced, err := e.submit(req, nil, msp)
	if err != nil {
		e.errors.Add(1)
		if msp.Active() {
			if errors.Is(err, ErrOverloaded) {
				msp.SetBool("shed", true)
			}
			msp.SetStr("error", err.Error())
			msp.End()
		}
		return Result{Err: decorate(ctx, err)}
	}
	res := e.wait(ctx, t, coalesced)
	if msp.Active() {
		if coalesced {
			msp.SetBool("coalesced", true)
			if owner := t.span; owner.Active() {
				msp.SetStr("exec_trace_id", owner.TraceID().String())
			}
		}
		if res.Err != nil {
			if errors.Is(res.Err, ErrDeadline) {
				msp.SetStr("cancel_point", "wait")
			}
			msp.SetStr("error", res.Err.Error())
		}
		msp.End()
	}
	return res
}

// MatchBatch schedules all requests before waiting on any, so
// independent requests run concurrently across the pool and duplicates
// within the batch coalesce. Results are positional. The error reports
// only submission-level failure of the whole batch (engine closed);
// per-request failures land in Result.Err.
func (e *Engine) MatchBatch(ctx context.Context, reqs []Request) []Result {
	return e.matchBatch(ctx, reqs, nil)
}

// matchBatch is MatchBatch starting from a pattern preparation the caller
// already holds (Search's) or none. Consecutive requests carrying the
// same pattern object share one preparation, so a fan-out of one pattern
// over many graphs normalises, fingerprints and shingles it once.
func (e *Engine) matchBatch(ctx context.Context, reqs []Request, p *prepared) []Result {
	e.batches.Add(1)
	results := make([]Result, len(reqs))
	if err := ctx.Err(); err != nil {
		// Already expired: reject the whole batch before enqueuing any
		// work.
		for i := range results {
			e.requests.Add(1)
			e.errors.Add(1)
			results[i] = Result{Err: decorate(ctx, fmt.Errorf("%w: %w", ErrDeadline, err))}
		}
		return results
	}
	tasks := make([]*task, len(reqs))
	flags := make([]bool, len(reqs))
	for i, req := range reqs {
		if p != nil && p.g != req.Pattern {
			p = nil
		}
		if p == nil && req.Pattern != nil {
			p = e.prepare(req.Pattern)
		}
		// Batch items do not get per-item spans: a search fan-out would
		// blow the per-trace span cap and drown the interesting stages.
		t, coalesced, err := e.submit(req, p, trace.Span{})
		if err != nil {
			e.errors.Add(1)
			results[i] = Result{Err: err}
			continue
		}
		tasks[i] = t
		flags[i] = coalesced
	}
	for i, t := range tasks {
		if t == nil {
			continue
		}
		results[i] = e.wait(ctx, t, flags[i])
	}
	return results
}

// prepared is a request pattern made ready for the workers: normalised,
// fingerprinted for coalescing and — on the first content-similarity use
// — shingled. Every task of a fan-out over one pattern object shares it.
type prepared struct {
	g   *graph.Graph
	sum [sha256.Size]byte

	setsOnce sync.Once
	sets     []shingle.Set
}

// prepare normalises and fingerprints a pattern. Finish is serialised
// because it mutates a not-yet-clean graph and concurrent submissions
// may share one pattern object.
func (e *Engine) prepare(g *graph.Graph) *prepared {
	e.prepares.Add(1)
	e.finishMu.Lock()
	g.Finish()
	e.finishMu.Unlock()
	return &prepared{g: g, sum: fingerprint(g)}
}

// contentSets returns the pattern's shingle sets (default window),
// computed once however many tasks and stages ask.
func (p *prepared) contentSets() []shingle.Set {
	p.setsOnce.Do(func() { p.sets = simmatrix.ContentSets(p.g, 0) })
	return p.sets
}

// submit validates a request and either enqueues a new task or attaches
// to an identical in-flight one. p is the preparation of req.Pattern
// when the caller already holds one, else nil. sp is the submitter's
// engine.match span (inert when untraced); a newly created task adopts
// it, so the worker's execution spans land in the trace of the request
// that caused the work.
func (e *Engine) submit(req Request, p *prepared, sp trace.Span) (*task, bool, error) {
	e.requests.Add(1)
	if req.Pattern == nil {
		return nil, false, fmt.Errorf("engine: nil pattern")
	}
	if _, err := ParseAlgorithm(string(req.Algo)); err != nil {
		return nil, false, err
	}
	if req.Sim == "" {
		req.Sim = SimLabel
	}
	if req.Sim != SimLabel && req.Sim != SimContent {
		return nil, false, fmt.Errorf("engine: unknown similarity kind %q", req.Sim)
	}
	if req.PathLimit < 0 {
		req.PathLimit = 0
	}
	if math.IsNaN(req.Xi) {
		return nil, false, fmt.Errorf("engine: ξ is NaN")
	}
	if (req.Algo == Decide || req.Algo == Decide11) &&
		e.exactLimit > 0 && req.Pattern.NumNodes() > e.exactLimit {
		return nil, false, fmt.Errorf("%w: %d nodes > limit %d",
			ErrExactLimit, req.Pattern.NumNodes(), e.exactLimit)
	}
	// Normalise the pattern before workers or coalesced readers touch it.
	if p == nil {
		p = e.prepare(req.Pattern)
	}
	key := reqKey{
		pattern:   p.sum,
		graphName: req.GraphName,
		algo:      req.Algo,
		xi:        req.Xi,
		pathLimit: req.PathLimit,
		sim:       req.Sim,
	}

	e.mu.Lock()
	if t, ok := e.inflight[key]; ok && t.attach() {
		e.mu.Unlock()
		e.coalesced.Add(1)
		return t, true, nil
	}
	// No live in-flight task to coalesce onto (either none, or one whose
	// waiters all gave up — its cancelled result must not be inherited).
	// This is new work: admission control applies before anything is
	// published or enqueued.
	n := e.pending.Add(1)
	if e.maxPending > 0 && n > int64(e.maxPending) {
		e.pending.Add(-1)
		e.mu.Unlock()
		e.shed.Add(1)
		return nil, false, fmt.Errorf("%w: %d tasks pending (limit %d)",
			ErrOverloaded, n-1, e.maxPending)
	}
	tctx, cancel := context.WithCancel(context.Background())
	t := &task{req: req, prep: p, key: key, done: make(chan struct{}), ctx: tctx, cancel: cancel, span: sp}
	t.waiters.Store(1)
	e.inflight[key] = t // overwrites a dead (waiterless) predecessor, if any
	e.mu.Unlock()

	e.sendMu.RLock()
	if e.closed {
		e.sendMu.RUnlock()
		// The task was already published to inflight, so a concurrent
		// identical request may have coalesced onto it: resolve it with
		// the error before unpublishing, or that waiter hangs forever.
		t.res = Result{Err: fmt.Errorf("engine: closed")}
		e.unpublish(t)
		e.pending.Add(-1)
		close(t.done)
		t.cancel()
		return nil, false, fmt.Errorf("engine: closed")
	}
	t.enqueued = time.Now()
	e.queue <- t
	e.sendMu.RUnlock()
	return t, false, nil
}

// unpublish removes a task from the inflight map — but only if it is
// still the published entry for its key. A dead task (all waiters
// detached) may already have been replaced by a fresh one; deleting
// blindly would unpublish the successor and break its coalescing.
func (e *Engine) unpublish(t *task) {
	e.mu.Lock()
	if e.inflight[t.key] == t {
		delete(e.inflight, t.key)
	}
	e.mu.Unlock()
}

// wait blocks until the task finishes or ctx is cancelled. A waiter
// that gives up detaches from the task; the last detach cancels the
// task's own context, which stops the matcher cooperatively.
func (e *Engine) wait(ctx context.Context, t *task, coalesced bool) Result {
	select {
	case <-t.done:
	case <-ctx.Done():
		t.detach()
		e.errors.Add(1)
		return Result{
			Err:       decorate(ctx, fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())),
			Coalesced: coalesced,
		}
	}
	res := t.res
	res.Coalesced = coalesced
	if res.Err != nil {
		e.errors.Add(1)
		res.Err = decorate(ctx, res.Err)
	}
	return res
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.queue {
		picked := time.Now()
		e.mTaskWait.Observe(picked.Sub(t.enqueued).Seconds())
		ctx := t.ctx
		if t.span.Active() {
			// Queue wait is recorded from timestamps already taken for
			// the metrics, and the task span rides into execute's
			// context so catalog/core spans nest under it.
			t.span.ChildSpanning("engine.queue", t.enqueued, picked)
			ctx = trace.ContextWithSpan(ctx, t.span)
		}
		if e.beforeExecute != nil {
			e.beforeExecute()
		}
		runStart := time.Now()
		t.res = e.execute(ctx, t.req, t.prep)
		runSecs := time.Since(runStart).Seconds()
		if t.span.Active() {
			e.mTaskRun.ObserveWithExemplar(runSecs, "trace_id", t.span.TraceID().String())
		} else {
			e.mTaskRun.Observe(runSecs)
		}
		e.executed.Add(1)
		e.pending.Add(-1)
		// Unpublish before signalling completion so a request arriving
		// after done is closed starts a fresh computation instead of
		// reading a task that will never change again — semantically
		// fine either way, but unpublishing keeps the inflight map from
		// retaining finished patterns. (unpublish also guards against
		// deleting a successor task that replaced this one after every
		// waiter detached.)
		e.unpublish(t)
		close(t.done)
		t.cancel() // release the task context's resources
	}
}

// execute runs one computation against the shared catalog. ctx is the
// task's private context — cancelled only when every attached waiter
// gave up — and is threaded into the core matcher's cooperative
// cancellation points, so an abandoned computation stops burning its
// worker within microseconds instead of running to completion.
func (e *Engine) execute(ctx context.Context, req Request, p *prepared) Result {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		// Every waiter detached while the task was still queued: skip
		// the work entirely.
		return Result{Err: fmt.Errorf("%w: %w", ErrDeadline, err)}
	}
	// Resolve the graph, its candidate index and its closure in one
	// read; separate lookups could straddle a Remove/Register/patch of
	// the same name and mix one graph with another's index. Simulation
	// never consults the closure, the exact deciders only the closure,
	// and the approximation algorithms additionally receive the
	// catalog's tiered reachability index (dense rows or
	// candidate-sparse, whichever the catalog selected for the graph's
	// size), so their per-request matcher setup materialises nothing.
	need := catalog.NeedIndex
	switch req.Algo {
	case Simulation:
		need = catalog.NeedGraph
	case Decide, Decide11:
		need = catalog.NeedReach
	}
	data, err := e.cat.ResolveCtx(ctx, req.GraphName, req.PathLimit, need)
	if err != nil {
		return Result{Err: err}
	}
	g2, reach, idx := data.Graph, data.Reach, data.Index
	var mat simmatrix.Matrix
	switch req.Sim {
	case SimContent:
		// Built over the graph's content postings, from the same registry
		// entry as g2: the matrix lists its own admissible pairs and the
		// matcher never scores V1 × V2.
		mat = data.Content().Matrix(p.contentSets())
	default:
		mat = simmatrix.NewLabelEquality(req.Pattern, g2)
	}

	if req.Algo == Simulation {
		// The simulation fixpoint has no internal cancellation points;
		// its cost is polynomial and small, so a pre-check suffices.
		if err := ctx.Err(); err != nil {
			return Result{Err: fmt.Errorf("%w: %w", ErrDeadline, err)}
		}
		holds := simulation.Compute(req.Pattern, g2, mat, req.Xi).Matches()
		return Result{Holds: holds, Elapsed: time.Since(start)}
	}

	in := core.NewInstance(req.Pattern, g2, mat, req.Xi)
	in.MaxPathLen = req.PathLimit
	in.SetReach(reach)
	if idx != nil {
		in.SetIndex(idx)
	}

	var (
		sigma core.Mapping
		holds bool
		err2  error
	)
	switch req.Algo {
	case MaxCard:
		sigma, err2 = in.CompMaxCardCtx(ctx)
	case MaxCard11:
		sigma, err2 = in.CompMaxCard11Ctx(ctx)
	case MaxSim:
		sigma, err2 = in.CompMaxSimCtx(ctx)
	case MaxSim11:
		sigma, err2 = in.CompMaxSim11Ctx(ctx)
	case Decide:
		sigma, holds, err2 = in.DecideCtx(ctx)
	case Decide11:
		sigma, holds, err2 = in.Decide11Ctx(ctx)
	default:
		return Result{Err: fmt.Errorf("engine: unknown algorithm %q", req.Algo)}
	}
	if err2 != nil {
		return Result{Err: err2}
	}
	res := Result{
		Mapping:  sigma,
		Holds:    holds,
		QualCard: in.QualCard(sigma),
		QualSim:  in.QualSim(sigma),
		Elapsed:  time.Since(start),
	}
	switch req.Algo {
	case MaxCard, MaxCard11, MaxSim, MaxSim11:
		res.Holds = len(sigma) == req.Pattern.NumNodes()
	}
	return res
}

// fingerprint digests a graph's complete content — node count, labels,
// weights, contents, and edge list — so structurally identical patterns
// coalesce regardless of object identity.
func fingerprint(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	writeInt(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		n := g.Node(graph.NodeID(v))
		writeStr(n.Label)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(n.Weight))
		h.Write(buf[:])
		writeStr(n.Content)
	}
	g.Edges(func(from, to graph.NodeID) bool {
		writeInt(int(from))
		writeInt(int(to))
		return true
	})
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
