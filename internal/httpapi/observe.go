package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/metrics"
	"graphmatch/internal/repl"
	"graphmatch/internal/trace"
)

// This file is the transport shell both phomd processes mount — the
// shard handler below and the cluster router (internal/cluster):
// request IDs, root spans, per-request deadlines, per-endpoint
// concurrency limits, per-route metrics, the access log and the
// introspection routes (/healthz, /metrics, /debug/traces). The JSON
// handlers themselves stay in httpapi.go; everything here wraps them.

// DefaultMaxBatch caps POST /v1/match/batch when Options.MaxBatch is
// left zero. A batch is dispatched concurrently into the worker pool,
// so an unbounded one is an admission-control bypass.
const DefaultMaxBatch = 1024

// retryAfterSeconds is the Retry-After hint attached to every 429,
// whether from the transport's concurrency limits or from the engine's
// admission control.
const retryAfterSeconds = "1"

// Options configures the transport shell. The zero value matches the
// pre-observability behaviour: no deadline, no limits, no access log,
// always ready.
type Options struct {
	// RequestTimeout bounds each request's wall time. The deadline
	// propagates through the engine into the matcher recursion, so a
	// timed-out request answers 504 AND frees its worker instead of
	// pinning it. 0 means no per-request deadline.
	RequestTimeout time.Duration
	// MatchConcurrency, SearchConcurrency and PatchConcurrency cap how
	// many requests of each class may be inside their handler at once;
	// excess requests answer 429 + Retry-After immediately instead of
	// queueing. 0 means unlimited. MatchConcurrency covers both
	// /v1/match and /v1/match/batch.
	MatchConcurrency  int
	SearchConcurrency int
	PatchConcurrency  int
	// MaxBatch caps the element count of one batch request; 0 applies
	// DefaultMaxBatch, negative lifts the cap.
	MaxBatch int
	// AccessLog, when non-nil, receives one line per request:
	// request id, method, path, status, response bytes, duration.
	AccessLog *log.Logger
	// Ready gates GET /readyz: 200 once Ready returns true, 503 before.
	// nil means always ready. GET /healthz (liveness) is unaffected.
	Ready func() bool
}

// NewWithOptions returns the phomd handler over e with the given
// transport options. New(e) is NewWithOptions(e, Options{}).
func NewWithOptions(e *engine.Engine, opts Options) http.Handler {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	s := &server{eng: e, opts: opts}
	sh := newShell(e.Metrics(), e.Tracer(), opts.RequestTimeout, opts.AccessLog, true)
	if _, follower := e.ReplStats(); follower {
		// Stale-read disclosure: every follower response carries how
		// many primary ops it is behind, so clients that care about
		// read-your-writes can check (0 = at the primary's head as of
		// the last checkpoint).
		sh.lag = func() (uint64, bool) {
			rs, ok := e.ReplStats()
			return rs.LagSeq, ok
		}
	}
	matchSem := newSem(opts.MatchConcurrency)
	sh.Route("POST /v1/graphs", nil, s.registerGraph)
	sh.Route("GET /v1/graphs", nil, s.listGraphs)
	sh.Route("GET /v1/graphs/{name}", nil, s.describeGraph)
	sh.Route("PATCH /v1/graphs/{name}", newSem(opts.PatchConcurrency), s.patchGraph)
	sh.Route("DELETE /v1/graphs/{name}", nil, s.removeGraph)
	sh.Route("POST /v1/admin/snapshot", nil, s.snapshot)
	sh.Route("POST /v1/match", matchSem, s.match)
	sh.Route("POST /v1/match/batch", matchSem, s.matchBatch)
	sh.Route("POST /v1/search", newSem(opts.SearchConcurrency), s.search)
	sh.Route("GET /v1/stats", nil, s.stats)
	sh.Route("GET /readyz", nil, s.readyz)
	if src := e.ReplSource(); src != nil {
		// The replication stream is mounted outside the observe shell:
		// it is unbounded by design, so the per-request deadline must
		// not cut it, and a stream that lives for hours would only
		// distort the latency histograms.
		sh.Handle("GET /v1/replicate/since/{seq}", repl.NewHandler(src, repl.HandlerOptions{}))
	}
	// The mux itself, like Booting's: phomd swaps the two through one
	// atomic.Value, which requires a single concrete type.
	return sh.ServeMux
}

// newSem builds a concurrency-limit semaphore; 0 or negative means
// unlimited (nil, which observe treats as "skip the gate").
func newSem(n int) chan struct{} {
	if n <= 0 {
		return nil
	}
	return make(chan struct{}, n)
}

// Shell is the transport shell: a ServeMux whose Route-mounted
// handlers run inside observe, with the introspection routes already
// mounted. The shard handler (NewWithOptions) and the cluster router
// both serve through one, so the two processes share request-id
// assignment, tracing, deadlines, metric families and the access-log
// format.
type Shell struct {
	*http.ServeMux
	tracer    *trace.Recorder
	timeout   time.Duration
	accessLog *log.Logger
	// lag, when set (follower shards), reports the replication lag
	// every response discloses in X-Replication-Lag.
	lag func() (uint64, bool)

	// Transport metric families; nil (a second handler over the same
	// registry) means no-op.
	mRequests  *metrics.CounterVec
	mLatency   *metrics.HistogramVec
	mRespBytes *metrics.CounterVec
	mLimited   *metrics.CounterVec
	mInFlight  *metrics.Gauge
}

// NewShell builds the shell the cluster router serves through: its
// phomd_http_* families register into reg, root spans open in tr (nil
// disables tracing), timeout bounds each request (0 = none) and
// accessLog, when non-nil, gets one line per request. Routes mounted
// on it carry no concurrency gates.
func NewShell(reg *metrics.Registry, tr *trace.Recorder, timeout time.Duration, accessLog *log.Logger) *Shell {
	return newShell(reg, tr, timeout, accessLog, false)
}

// newShell registers the transport families — phomd_http_limited_total
// only when gated, i.e. when routes will mount concurrency limits — and
// mounts /healthz (observed), /metrics and the flight-recorder routes.
// If another handler already registered the families (two handlers
// over one engine), this one leaves its instruments nil rather than
// double-registering.
func newShell(reg *metrics.Registry, tr *trace.Recorder, timeout time.Duration, accessLog *log.Logger, gated bool) *Shell {
	sh := &Shell{ServeMux: http.NewServeMux(), tracer: tr, timeout: timeout, accessLog: accessLog}
	if !hasFamily(reg, "phomd_http_requests_total") {
		sh.mRequests = reg.CounterVec("phomd_http_requests_total",
			"HTTP requests by route, method and status code.",
			"route", "method", "code")
		sh.mLatency = reg.HistogramVec("phomd_http_request_seconds",
			"End-to-end request latency by route.", nil, "route")
		sh.mRespBytes = reg.CounterVec("phomd_http_response_bytes_total",
			"Response body bytes by route.", "route")
		if gated {
			sh.mLimited = reg.CounterVec("phomd_http_limited_total",
				"Requests answered 429 by the per-endpoint concurrency limits.",
				"route")
		}
		sh.mInFlight = reg.Gauge("phomd_http_in_flight",
			"Requests currently inside a handler.")
	}
	sh.Route("GET /healthz", nil, func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// /metrics and the flight-recorder routes are mounted outside the
	// observe shell: reading metrics or traces must not generate traces,
	// distort the latency histograms or consume request IDs.
	sh.Handle("GET /metrics", reg.Handler())
	sh.HandleFunc("GET /debug/traces", sh.debugTraces)
	sh.HandleFunc("GET /debug/traces/{id}", sh.debugTrace)
	return sh
}

func hasFamily(reg *metrics.Registry, name string) bool {
	for _, n := range reg.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Route mounts h under pattern inside the shell; a non-nil sem caps how
// many requests may be inside h at once (excess answer 429).
func (sh *Shell) Route(pattern string, sem chan struct{}, h http.HandlerFunc) {
	sh.Handle(pattern, sh.observe(pattern, sem, h))
}

// observe wraps a handler with the full transport shell, outermost to
// innermost: request-ID assignment, in-flight accounting, the
// concurrency gate, the per-request deadline, then the handler; after
// it returns, per-route metrics and the access log line.
func (sh *Shell) observe(route string, sem chan struct{}, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		if sh.lag != nil {
			if lag, ok := sh.lag(); ok {
				w.Header().Set("X-Replication-Lag", strconv.FormatUint(lag, 10))
			}
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// The root span opens before the concurrency gate so shed
		// requests are traced too — a 429 with a trace_id is evidence,
		// not a mystery. An incoming traceparent is continued (the trace
		// files under the caller's id); otherwise the request id doubles
		// as the trace identity, so GET /debug/traces/{X-Request-ID}
		// finds the trace of any response.
		sp := sh.startTrace(r, route, id, start)
		if sp.Active() {
			rec.traceID = sp.TraceID().String()
			rec.Header().Set("traceparent", sp.Traceparent())
		}
		sh.mInFlight.Inc()
		defer func() {
			sh.mInFlight.Dec()
			sh.finish(rec, r, route, id, start, sp)
		}()

		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				sh.mLimited.With(route).Inc()
				sp.SetBool("limited", true)
				rec.Header().Set("Retry-After", retryAfterSeconds)
				writeError(rec, http.StatusTooManyRequests,
					fmt.Errorf("concurrency limit reached for %s", route))
				return
			}
		}

		ctx := engine.WithRequestID(r.Context(), id)
		if sp.Active() {
			ctx = trace.ContextWithSpan(ctx, sp)
		}
		if sh.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, sh.timeout)
			defer cancel()
		}
		h(rec, r.WithContext(ctx))
	})
}

// startTrace opens the request's root span in the flight recorder:
// inert when tracing is disabled, re-parented under the caller's trace
// when the request carries a valid traceparent, and otherwise rooted
// at a trace id derived from the request id.
func (sh *Shell) startTrace(r *http.Request, route, id string, start time.Time) trace.Span {
	if sh.tracer == nil {
		return trace.Span{}
	}
	if h := r.Header.Get("traceparent"); h != "" {
		if tid, parent, ok := trace.ParseTraceparent(h); ok {
			return sh.tracer.StartRemoteAt(tid, parent, route, id, start)
		}
	}
	return sh.tracer.StartTraceAt(trace.DeriveTraceID(id), route, id, start)
}

// finish records the per-route metrics, seals the trace and emits the
// access log line — all from one clock read, so the histogram sample,
// the dur= field and the trace's root duration agree exactly.
func (sh *Shell) finish(rec *statusRecorder, r *http.Request, route, id string, start time.Time, sp trace.Span) {
	elapsed := time.Since(start)
	if sp.Active() {
		sp.SetInt("http_status", int64(rec.status))
		sp.EndAfter(elapsed)
	}
	sh.mRequests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
	if lat := sh.mLatency.With(route); rec.traceID != "" {
		lat.ObserveWithExemplar(elapsed.Seconds(), "trace_id", rec.traceID)
	} else {
		lat.Observe(elapsed.Seconds())
	}
	sh.mRespBytes.With(route).Add(uint64(rec.bytes))
	if lg := sh.accessLog; lg != nil {
		if rec.traceID != "" {
			lg.Printf("req_id=%s trace_id=%s method=%s path=%s status=%d bytes=%d dur=%s",
				id, rec.traceID, r.Method, r.URL.Path, rec.status, rec.bytes, elapsed.Round(time.Microsecond))
		} else {
			lg.Printf("req_id=%s method=%s path=%s status=%d bytes=%d dur=%s",
				id, r.Method, r.URL.Path, rec.status, rec.bytes, elapsed.Round(time.Microsecond))
		}
	}
}

// readyz is the readiness probe: load balancers stop routing to a
// not-ready instance, while healthz keeps reporting the process alive.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ready == nil || s.opts.Ready() {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
}

// statusRecorder captures the status code and body size a handler
// wrote, for metrics and the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	// traceID is the request's 32-hex trace id when tracing is on;
	// error bodies carry it (TraceID) so a 429 or 504 names the
	// flight-recorder entry that explains it.
	traceID string
}

func (rec *statusRecorder) WriteHeader(code int) {
	rec.status = code
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += n
	return n, err
}

// Flush delegates to the wrapped writer so streaming handlers behind
// the observe shell (chunked responses) still flush; without this the
// recorder would hide the Flusher interface and buffer the stream.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TraceID returns the trace id of the request w answers, or "" when w
// is not a shell response writer or tracing is off. Error bodies carry
// it so a failed request can be followed up with GET
// /debug/traces/{trace_id} or `phom trace <trace_id>`.
func TraceID(w http.ResponseWriter) string {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.traceID
	}
	return ""
}

// newRequestID returns a fresh 16-hex-char identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// writeEngineError maps an engine failure to its HTTP status; 429s
// carry the same Retry-After hint the transport-level limiter uses.
func writeEngineError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeError(w, code, err)
}
