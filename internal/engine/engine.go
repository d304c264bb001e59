// Package engine is the concurrent batch scheduler of the serving
// subsystem. It sits between the transport (internal/httpapi, or direct
// library use via graphmatch.Engine) and the matching core:
//
//   - a bounded worker pool executes match requests concurrently, so a
//     burst of requests saturates the CPUs instead of serialising;
//   - each submission is one task, run on its submitter's context, so
//     a caller that gives up stops its own computation;
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/metrics"
	"graphmatch/internal/repl"
	"graphmatch/internal/search"
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
	// Xi is the node-similarity threshold ξ, clamped to [0, 1].
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
	// closure lookup, and matching).
	Elapsed time.Duration
	// Err is the per-request failure, if any (unknown graph, invalid
	// algorithm, cancelled context).
	Err error
}

// Stats is a point-in-time snapshot of engine throughput counters.
type Stats struct {
	// Requests counts submissions.
	Requests uint64 `json:"requests"`
	// Executed counts computations actually run by workers.
	Executed uint64 `json:"executed"`
	// Coalesced is always 0: the engine no longer merges identical
	// in-flight requests. It stays only because cmd/bench reads it for
	// engine.coalesced_ratio; it goes with that metric.
	Coalesced uint64 `json:"coalesced"`
	// Errors counts requests that finished with a non-nil error.
	Errors uint64 `json:"errors"`
	// Shed counts calls rejected by admission control; a shed batch or
	// search counts once.
	Shed uint64 `json:"shed"`
	// Pending is the point-in-time count of pending slots admitted calls
	// hold. It bounds the tasks queued or running.
	Pending int64 `json:"pending"`
	// Batches counts MatchBatch calls.
	Batches uint64 `json:"batches"`
	// Searches counts Search calls (catalog-wide top-k rankings).
	Searches uint64 `json:"searches"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// MaxPending is the admission bound in force (0 = no shedding).
	MaxPending int `json:"max_pending"`
	// SearchIndexBytes is the heap held by the search subsystem's
	// stage-1 postings (search.Index.Bytes); 0 until the first search.
	SearchIndexBytes int64 `json:"search_index_bytes"`
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
	// MaxClosureBytes bounds the catalog's resident closure bytes; LRU
	// entries are evicted past it. 0 means unbounded.
	MaxClosureBytes int64
	// MaxPending enables load-shedding admission control: when more
	// than this many admitted tasks are queued or running, new
	// submissions fail immediately with ErrOverloaded instead of
	// blocking on the queue. 0 — the library default — disables
	// shedding and preserves the blocking-submit behaviour. Negative
	// selects 5 × Workers (after its default): the queue holds 4 ×
	// Workers tasks, so that is the largest bound under which an
	// admitted task's queue send never blocks; servers exposed to
	// untrusted load should shed (phomd does, with that bound). Every call is admitted once: a Match
	// reserves one pending slot, a batch or a search the slots of its
	// window of at most Workers tasks, so it is served whole or shed
	// whole and the bound still counts every task queued or running.
	MaxPending int
	// ExactNodeLimit, when positive, rejects Decide/Decide11 requests
	// whose pattern has more nodes — those procedures are exponential,
	// and while a context deadline now aborts them mid-recursion, a
	// request submitted without one can still pin a worker for a long
	// time. 0 means unlimited (library default); servers exposed to
	// untrusted clients should set it (phomd does).
	ExactNodeLimit int
	// StorePath, when non-empty, makes the catalog durable: mutations
	// (Register, Remove, ApplyPatch) are written to a WAL in this
	// directory and fsynced before they are acknowledged, and Open
	// replays snapshot + WAL to rebuild the catalog — closures
	// included — before returning. Engines with a
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
	// ReplayProgress, when non-nil, observes boot-time store replay:
	// it is called as (done, total) work units — snapshot graphs, WAL
	// ops, then catalog registrations — so a boot-phase handler can
	// derive a Retry-After estimate. total may grow between calls (the
	// registration count is only known once the fold finishes).
	ReplayProgress func(done, total int)
	// PatchCoalesceCount is ignored: the engine no longer batches
	// patch bursts, and every patch is one catalog commit. It stays
	// only because cmd/bench sets it; it goes with that setting.
	PatchCoalesceCount int
	// NoTrace disables the flight recorder entirely: Tracer() returns
	// nil and no spans are ever recorded, even for requests that carry
	// a traceparent. Requests without a span in their context already
	// skip all span work (one context lookup per layer), so this
	// matters mainly for embedders that bring their own tracing. The
	// recorder keeps the trace package's default ring sizes.
	NoTrace bool

	// follow carries the follower's transport and timing (Client,
	// MinBackoff, MaxBackoff, StallTimeout); startFollower fills in the
	// rest. Zero keeps the repl package defaults. Tests set it to inject
	// a fault transport and tight reconnect schedules.
	follow repl.Config
}

// task is one scheduled computation plus its completion signal. It
// runs on its submitter's context, so a submitter that gives up — while
// the task is queued or mid-recursion — stops it cooperatively (core's
// *Ctx entry points).
type task struct {
	req  Request
	prep *prepared
	ctx  context.Context
	// report is the channel of the call that submitted the task: the
	// worker sends the task's item index i on it once res is stored. It
	// has room for the call's whole window, so the send never blocks.
	// reported is the call's own mark that the send arrived.
	report   chan<- int
	i        int
	reported bool
	res      Result
	enqueued time.Time
	// span is the submitting request's engine.match span (inert when
	// the submitter was untraced, and for batch items). The worker
	// parents queue-wait and execution spans under it.
	span trace.Span
}

// Engine schedules match requests over a shared catalog. Create one
// with New; it is safe for concurrent use. Close releases the workers.
type Engine struct {
	cat   *catalog.Catalog
	queue chan *task
	wg    sync.WaitGroup

	exactLimit int

	// searchIdx is the stage-1 candidate index of the search subsystem;
	// each search reads the catalog's registry and re-summarises only
	// the graph versions it has not seen, so it needs no notification.
	searchIdx *search.Index

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
	// afterExecute, when set, runs on the worker between storing a
	// task's result and reporting it. Tests use it to delay the report.
	afterExecute func()

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

	// tracer is the flight recorder (nil with Options.NoTrace):
	// completed request traces land here, queryable through
	// GET /debug/traces and the explain path.
	tracer *trace.Recorder

	// Admission control: pending counts the slots admitted calls hold
	// (see fanOut); maxPending > 0 sheds past the bound.
	maxPending int
	pending    atomic.Int64
	shed       atomic.Uint64

	requests atomic.Uint64
	executed atomic.Uint64
	errors   atomic.Uint64
	batches  atomic.Uint64
	searches atomic.Uint64
	workers  int

	// reg is the process-wide metrics registry the m* instruments
	// register into.
	reg               *metrics.Registry
	mTaskWait         *metrics.Histogram
	mTaskRun          *metrics.Histogram
	mSearchCandidates *metrics.Histogram
	mSearchMatched    *metrics.Histogram
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
// rebuilt — before Open returns, so a server can
// bind its listener only once the recovered engine is ready to serve.
func Open(opts Options) (*Engine, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := 4 * workers
	maxPending := opts.MaxPending
	if maxPending < 0 {
		maxPending = depth + workers
	}
	e := &Engine{
		queue:         make(chan *task, depth),
		workers:       workers,
		exactLimit:    opts.ExactNodeLimit,
		maxPending:    maxPending,
		snapshotEvery: opts.SnapshotEvery,
		reg:           metrics.NewRegistry(),
	}
	if opts.FollowURL != "" && opts.StorePath == "" {
		return nil, fmt.Errorf("engine: FollowURL requires StorePath (the follower persists the stream to its own WAL)")
	}
	if !opts.NoTrace {
		e.tracer = trace.NewRecorder(0, 0)
	}
	e.cat = catalog.New(opts.MaxClosures, catalog.WithMaxBytes(opts.MaxClosureBytes),
		catalog.WithPatchObserver(e.initMetrics()))
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
// fsynced before it is acknowledged. ctx carries the request's trace
// (catalog commit and WAL append spans). See catalog.Catalog.RegisterCtx
// for ownership rules.
func (e *Engine) Register(ctx context.Context, name string, g *graph.Graph) error {
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
// is durable before it is acknowledged. ctx carries the request's trace.
func (e *Engine) Remove(ctx context.Context, name string) error {
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
	return Stats{
		Requests:         e.requests.Load(),
		Executed:         e.executed.Load(),
		Errors:           e.errors.Load(),
		Shed:             e.shed.Load(),
		Pending:          e.pending.Load(),
		Batches:          e.batches.Load(),
		Searches:         e.searches.Load(),
		Workers:          e.workers,
		MaxPending:       e.maxPending,
		SearchIndexBytes: e.searchIdx.Bytes(),
	}
}

// Match schedules one request and waits for its result. An
// already-expired context is rejected before any work is enqueued; the
// task runs on ctx, so a context that dies while the request is queued
// or running stops the computation cooperatively. Both cases return
// ErrDeadline.
func (e *Engine) Match(ctx context.Context, req Request) Result {
	e.requests.Add(1)
	// The engine.match span covers validation, queueing and execution;
	// shed and deadline outcomes are recorded on it so a 429/504 is
	// attributable in the flight recorder. One context lookup when the
	// request is untraced.
	msp := trace.SpanFromContext(ctx).Child("engine.match")
	if msp.Active() {
		msp.SetStr("algo", string(req.Algo))
		msp.SetStr("graph", req.GraphName)
	}
	if ctx.Err() != nil {
		e.errors.Add(1)
		msp.SetStr("cancel_point", "pre-submit")
		msp.End()
		return Result{Err: decorate(ctx, deadline(ctx))}
	}
	var res Result
	err := e.normalize(&req)
	if err == nil {
		_, err = e.fanOut(ctx, 1, func(int) (*task, error) {
			return &task{req: req, prep: e.prepare(req.Pattern), ctx: ctx, span: msp}, nil
		}, nil, func(_ int, r Result) { res = r })
	}
	if err != nil {
		e.errors.Add(1)
		if errors.Is(err, ErrOverloaded) {
			msp.SetBool("shed", true)
		}
		res.Err = decorate(ctx, err)
	} else if errors.Is(res.Err, ErrDeadline) {
		msp.SetStr("cancel_point", "wait")
	}
	if msp.Active() && res.Err != nil {
		msp.SetStr("error", cmp.Or(err, res.Err).Error())
	}
	msp.End()
	return res
}

// MatchBatch schedules the requests as one call, admitted once and run
// through a window of at most Workers tasks, so independent requests
// run concurrently across the pool. A batch is served whole or shed
// whole, every result then failing with ErrOverloaded. Results are
// positional; per-request failures land in Result.Err. Consecutive
// requests carrying the same pattern object share one preparation, so a
// fan-out of one pattern over many graphs normalises and shingles it
// once.
func (e *Engine) MatchBatch(ctx context.Context, reqs []Request) []Result {
	e.batches.Add(1)
	e.requests.Add(uint64(len(reqs)))
	results := make([]Result, len(reqs))
	var p *prepared
	folded, err := 0, error(nil)
	if ctx.Err() == nil {
		folded, err = e.fanOut(ctx, len(reqs), func(i int) (*task, error) {
			req := reqs[i]
			if err := e.normalize(&req); err != nil {
				return nil, err
			}
			if p == nil || p.g != req.Pattern {
				p = e.prepare(req.Pattern)
			}
			// Batch items do not get per-item spans: a large fan-out would
			// blow the per-trace span cap and drown the interesting stages.
			return &task{req: req, prep: p, ctx: ctx}, nil
		}, nil, func(i int, res Result) { results[i] = res })
	}
	if err == nil && folded < len(reqs) {
		err = deadline(ctx)
	}
	// The items the fan-out did not reach (every one when the context had
	// expired or admission shed the batch) fail with that cause.
	for i := folded; i < len(reqs); i++ {
		e.errors.Add(1)
		results[i].Err = decorate(ctx, err)
	}
	return results
}

// deadline is the error of work cut short by its context.
func deadline(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())
}

// prepared is a request pattern made ready for the workers: normalised
// and — on the first content-similarity use — shingled, its distinct
// shingles sorted once for stage 1 of a search and every content
// matrix. Every task of a fan-out over one pattern object shares it.
type prepared struct {
	g *graph.Graph

	contentOnce sync.Once
	pattern     *simmatrix.ContentPattern
}

// prepare normalises a pattern. Finish is serialised because it mutates
// a not-yet-clean graph and concurrent submissions may share one pattern
// object.
func (e *Engine) prepare(g *graph.Graph) *prepared {
	e.prepares.Add(1)
	e.finishMu.Lock()
	g.Finish()
	e.finishMu.Unlock()
	return &prepared{g: g}
}

// content shingles the pattern (default window) once however many
// tasks and stages ask.
func (p *prepared) content() *prepared {
	p.contentOnce.Do(func() {
		p.pattern = simmatrix.NewContentPattern(p.g, 0)
	})
	return p
}

// normalize validates a request and fills in its defaults. It checks a
// match, and the fields a search shares with one: the similarity kind
// defaults to SimLabel, a negative PathLimit means unbounded, and ξ is
// clamped to [0, 1], the range core.NewInstance holds it to, so the
// content matrix, the search bound and the matcher all read one ξ.
func (e *Engine) normalize(req *Request) error {
	if req.Pattern == nil {
		return fmt.Errorf("engine: nil pattern")
	}
	if _, err := ParseAlgorithm(string(req.Algo)); err != nil {
		return err
	}
	if req.Sim == "" {
		req.Sim = SimLabel
	}
	if req.Sim != SimLabel && req.Sim != SimContent {
		return fmt.Errorf("engine: unknown similarity kind %q", req.Sim)
	}
	if math.IsNaN(req.Xi) {
		return fmt.Errorf("engine: ξ is NaN")
	}
	req.Xi = min(max(req.Xi, 0), 1)
	req.PathLimit = max(req.PathLimit, 0)
	if (req.Algo == Decide || req.Algo == Decide11) &&
		e.exactLimit > 0 && req.Pattern.NumNodes() > e.exactLimit {
		return fmt.Errorf("%w: %d nodes > limit %d",
			ErrExactLimit, req.Pattern.NumNodes(), e.exactLimit)
	}
	return nil
}

// fanOut runs items 0..n-1 of one call through the pool, started in
// order by start, and folds their results in that order, whatever order
// the tasks finish in. The call is admitted once: it reserves
// min(Workers, n, MaxPending) pending slots in one step, or is shed
// whole with ErrOverloaded, and at most that many of its tasks are
// queued or running. An error from start is the item's result. stop,
// when non-nil, ends the fan-out at the first item it holds for; so does
// an item ctx leaves without a result, which folds ErrDeadline. Failed
// results reach fold decorated and counted. fanOut returns how many
// items it folded; the slots of tasks still in flight go back as the
// tasks report.
func (e *Engine) fanOut(ctx context.Context, n int, start func(i int) (*task, error), stop func(i int) bool, fold func(i int, res Result)) (int, error) {
	slots := min(e.workers, n)
	if e.maxPending > 0 {
		slots = min(slots, e.maxPending)
	}
	if err := e.reserve(slots); err != nil {
		return 0, err
	}
	// Room for the whole window, so a worker's report never blocks. It
	// carries item indexes, not tasks: a buffer without pointers comes
	// in the channel's own allocation.
	report := make(chan int, slots)
	var one [1]*task // a call of one, Match, allocates no slice
	started := one[:]
	if n > 1 {
		started = make([]*task, n)
	}
	next, inflight := 0, 0
	// fill starts items in order while the window has a free slot,
	// whichever task freed it.
	fill := func() {
		for ; inflight < slots && next < n && (stop == nil || !stop(next)); next++ {
			t, err := start(next)
			if err != nil {
				t = &task{res: Result{Err: err}, reported: true}
			} else {
				t.report, t.i = report, next
				e.submit(t)
				inflight++
			}
			started[next] = t
		}
	}
	folded := 0
	for folded < n && (stop == nil || !stop(folded)) {
		// Every item before this one has been folded, so its task has
		// reported and the window has a slot for it if it has not started.
		fill()
		i, t := folded, started[folded]
		folded++
		for !t.reported && ctx.Err() == nil {
			select {
			case r := <-report:
				started[r].reported = true
				inflight--
				fill()
			case <-ctx.Done():
			}
		}
		if !t.reported {
			e.errors.Add(1)
			fold(i, Result{Err: decorate(ctx, deadline(ctx))})
			break // the caller gave up: no later result can be waited for
		}
		res := t.res
		if res.Err != nil {
			e.errors.Add(1)
			res.Err = decorate(ctx, res.Err)
		}
		fold(i, res)
	}
	e.pending.Add(-int64(slots - inflight))
	if inflight > 0 {
		go func() {
			for range inflight {
				<-report
				e.pending.Add(-1)
			}
		}()
	}
	return folded, nil
}

// submit enqueues a task of an admitted call, in one of the call's
// pending slots. On a closed engine the task reports its failure at once.
func (e *Engine) submit(t *task) {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	if e.closed {
		t.res.Err = fmt.Errorf("engine: closed")
		t.report <- t.i
		return
	}
	t.enqueued = time.Now()
	e.queue <- t
}

// reserve admits n pending slots at once, or sheds them together, never
// counted, when they would take the engine past its admission bound.
func (e *Engine) reserve(n int) error {
	got := e.pending.Load()
	for ; e.maxPending <= 0 || got+int64(n) <= int64(e.maxPending); got = e.pending.Load() {
		if e.pending.CompareAndSwap(got, got+int64(n)) {
			return nil
		}
	}
	e.shed.Add(1)
	return fmt.Errorf("%w: %d tasks pending (limit %d)", ErrOverloaded, got, e.maxPending)
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.queue {
		picked := time.Now()
		e.mTaskWait.Observe(picked.Sub(t.enqueued).Seconds())
		// Queue wait is recorded from timestamps already taken for the
		// metrics. The task span rides into execute's context even when
		// inert: a batch item's caller context may carry an active span
		// (a search's), and its catalog/core spans must not land there.
		t.span.ChildSpanning("engine.queue", t.enqueued, picked)
		ctx := trace.ContextWithSpan(t.ctx, t.span)
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
		if e.afterExecute != nil {
			e.afterExecute()
		}
		t.report <- t.i // the call owns the task's pending slot
	}
}

// execute runs one computation against the shared catalog. ctx is the
// submitter's context, threaded into the core matcher's cooperative
// cancellation points, so an abandoned computation stops burning its
// worker within microseconds instead of running to completion.
func (e *Engine) execute(ctx context.Context, req Request, p *prepared) Result {
	start := time.Now()
	if ctx.Err() != nil {
		// The submitter gave up while the task was still queued: skip
		// the work entirely.
		return Result{Err: deadline(ctx)}
	}
	// Resolve the graph, its candidate index and its closure in one
	// read; separate lookups could straddle a Remove/Register/patch of
	// the same name and mix one graph with another's index. Simulation
	// never consults the closure; every other algorithm receives it
	// together with the catalog's index over it, so the per-request
	// matcher setup materialises nothing.
	need := catalog.NeedReach
	if req.Algo == Simulation {
		need = catalog.NeedGraph
	}
	data, err := e.cat.Resolve(ctx, req.GraphName, req.PathLimit, need)
	if err != nil {
		return Result{Err: err}
	}
	g2, reach, idx := data.Graph, data.Reach, data.Index
	var mat simmatrix.Matrix
	switch req.Sim {
	case SimContent:
		// Built over the graph's content postings, from the same registry
		// entry as g2, at the request's ξ: the matrix holds and lists
		// only the admissible pairs, and every reader below reads at
		// that same ξ.
		mat = data.Content().Matrix(p.content().pattern, req.Xi)
	default:
		mat = simmatrix.NewLabelEquality(req.Pattern, g2)
	}

	if req.Algo == Simulation {
		// The simulation fixpoint has no internal cancellation points;
		// its cost is polynomial and small, so a pre-check suffices.
		if ctx.Err() != nil {
			return Result{Err: deadline(ctx)}
		}
		holds := simulation.Compute(req.Pattern, g2, mat, req.Xi).Matches()
		return Result{Holds: holds, Elapsed: time.Since(start)}
	}

	in := core.NewInstance(req.Pattern, g2, mat, req.Xi)
	in.MaxPathLen = req.PathLimit
	in.SetReach(reach)
	in.SetIndex(idx)

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
