package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
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
// request IDs, root spans, per-request deadlines, per-route metrics,
// the access log and the introspection routes (/healthz, /metrics, /debug/traces). The JSON
// handlers themselves stay in httpapi.go; everything here wraps them.

// MaxBatch caps the element count of one POST /v1/match/batch; a
// larger batch answers 400. The engine admits a batch whole and runs it
// through a window of at most Workers tasks, so the cap bounds the
// memory one request body can pin, not the load it can queue.
const MaxBatch = 1024

// retryAfterSeconds is the Retry-After hint attached to every 429 —
// all of which come from the engine's admission control.
const retryAfterSeconds = "1"

// Options configures the transport shell. The zero value means no
// deadline, no access log and always ready.
type Options struct {
	// RequestTimeout bounds each request's wall time. The deadline
	// propagates through the engine into the matcher recursion, so a
	// timed-out request answers 504 AND frees its worker instead of
	// pinning it. 0 means no per-request deadline.
	RequestTimeout time.Duration
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
	s := &server{eng: e, opts: opts}
	sh := NewShell(e.Metrics(), e.Tracer(), opts.RequestTimeout, opts.AccessLog)
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
	sh.Route("POST /v1/graphs", s.registerGraph)
	sh.Route("GET /v1/graphs", s.listGraphs)
	sh.Route("GET /v1/graphs/{name}", s.describeGraph)
	sh.Route("PATCH /v1/graphs/{name}", s.patchGraph)
	sh.Route("DELETE /v1/graphs/{name}", s.removeGraph)
	sh.Route("POST /v1/admin/snapshot", s.snapshot)
	sh.Route("POST /v1/match", s.match)
	sh.Route("POST /v1/match/batch", s.matchBatch)
	sh.Route("POST /v1/search", s.search)
	sh.Route("GET /v1/stats", s.stats)
	sh.Route("GET /readyz", s.readyz)
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

// Shell is the transport shell: a ServeMux whose Route-mounted
// handlers run inside observe, with the introspection routes already
// mounted. The shard handler (NewWithOptions) and the cluster router
// both serve through one, so the two processes share request-id
// assignment, tracing, deadlines, metric families and the access-log
// format; they differ only by a follower shard's lag header.
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
	mInFlight  *metrics.Gauge
}

// NewShell builds a shell: its phomd_http_* families register into reg,
// root spans open in tr (nil disables tracing), timeout bounds each
// request (0 = none) and accessLog, when non-nil, gets one line per
// request. It mounts /healthz (observed), /metrics and the
// flight-recorder routes. If another handler already registered the
// families (two handlers over one engine), this one leaves its
// instruments nil rather than double-registering.
func NewShell(reg *metrics.Registry, tr *trace.Recorder, timeout time.Duration, accessLog *log.Logger) *Shell {
	sh := &Shell{ServeMux: http.NewServeMux(), tracer: tr, timeout: timeout, accessLog: accessLog}
	if !hasFamily(reg, "phomd_http_requests_total") {
		sh.mRequests = reg.CounterVec("phomd_http_requests_total",
			"HTTP requests by route, method and status code.",
			"route", "method", "code")
		sh.mLatency = reg.HistogramVec("phomd_http_request_seconds",
			"End-to-end request latency by route.", nil, "route")
		sh.mRespBytes = reg.CounterVec("phomd_http_response_bytes_total",
			"Response body bytes by route.", "route")
		sh.mInFlight = reg.Gauge("phomd_http_in_flight",
			"Requests currently inside a handler.")
	}
	sh.Route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
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

// Route mounts h under pattern inside the shell.
func (sh *Shell) Route(pattern string, h http.HandlerFunc) {
	sh.Handle(pattern, sh.observe(pattern, h))
}

// observe wraps a handler with the full transport shell, outermost to
// innermost: request-ID assignment, in-flight accounting, the
// per-request deadline, then the handler; after it returns, per-route
// metrics and the access log line.
func (sh *Shell) observe(route string, h http.HandlerFunc) http.Handler {
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
		// Every request is traced, shed ones included — a 429 with a
		// trace_id is evidence, not a mystery. An incoming traceparent is
		// continued (the trace files under the caller's id); otherwise
		// the request id doubles as the trace identity, so
		// GET /debug/traces/{X-Request-ID} finds the trace of any
		// response.
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
// carry a Retry-After hint.
func writeEngineError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeError(w, code, err)
}
