package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/metrics"
	"graphmatch/internal/search"
	"graphmatch/internal/trace"
)

// routerMaxBody bounds forwarded request bodies, matching the shard
// transport's own limit.
const routerMaxBody = 64 << 20

// RouterOptions configures the stateless router.
type RouterOptions struct {
	// MaxLag bounds how many ops behind the primary a replica may be
	// and still serve single-graph reads and search fan-out hops
	// (phomd -route-max-lag). 0 — the default — routes reads only to
	// replicas that were at the primary's head at their last probe.
	MaxLag uint64
	// ProbeInterval is the /readyz health-probe period per endpoint;
	// 0 applies DefaultProbeInterval.
	ProbeInterval time.Duration
	// RequestTimeout bounds each routed request's wall time; per-shard
	// hop deadlines are derived from it (a slice of the remaining
	// budget is reserved for the merge). 0 means no deadline.
	RequestTimeout time.Duration
	// Client issues every shard hop and probe; nil builds a pooled
	// default. Tests inject fault transports here.
	Client *http.Client
	// AccessLog, when non-nil, receives one line per routed request.
	AccessLog *log.Logger
	// NoTrace disables the router's flight recorder, which otherwise
	// keeps the trace package's default ring sizes.
	NoTrace bool
}

// Router is the stateless scatter-gather front of a phomd shard
// fleet. It owns no catalog: every request is resolved against the
// ring and forwarded — mutations to the owning shard's primary
// (following one 421 Misdirected redirect), single-graph reads to a
// healthy replica of the owning shard (one retry on connection
// failure or 5xx), and catalog-wide searches to every shard, whose
// local top-k responses fold through search.Better into an exact
// global top-k. Run it with phomd -router -shards <spec>.
type Router struct {
	ring   *Ring
	opts   RouterOptions
	client *http.Client
	health *healthTracker
	shell  *httpapi.Shell

	mShardReqs    *metrics.CounterVec
	mShardSeconds *metrics.HistogramVec
	mShardErrors  *metrics.CounterVec
	mRetries      *metrics.CounterVec
	mRedirects    *metrics.Counter
	mPartial      *metrics.Counter
	mFanout       *metrics.Histogram
	mEndpointUp   *metrics.GaugeVec
	mEndpointLag  *metrics.GaugeVec
}

// NewRouter builds a router over the given ring configuration and
// starts its health prober. Callers must Close it.
func NewRouter(cfg Config, opts RouterOptions) (*Router, error) {
	ring, err := NewRing(cfg)
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		client = &http.Client{Transport: tr}
	}
	var tracer *trace.Recorder
	if !opts.NoTrace {
		tracer = trace.NewRecorder(0, 0)
	}
	reg := metrics.NewRegistry()
	reg.RegisterRuntime()
	rt := &Router{
		ring:   ring,
		opts:   opts,
		client: client,
		shell:  httpapi.NewShell(reg, tracer, opts.RequestTimeout, opts.AccessLog),
	}
	rt.initMetrics(reg)
	rt.health = newHealthTracker(ring.Config().Shards, client, opts.ProbeInterval)
	rt.health.observe = func(url string, ready bool, lag uint64) {
		up := 0.0
		if ready {
			up = 1
		}
		rt.mEndpointUp.With(url).Set(up)
		rt.mEndpointLag.With(url).Set(float64(lag))
	}
	rt.initMux()
	rt.health.start()
	return rt, nil
}

// Close stops the health prober. In-flight requests finish normally.
func (rt *Router) Close() { rt.health.close() }

// Ring exposes the placement the router serves from.
func (rt *Router) Ring() *Ring { return rt.ring }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.shell.ServeHTTP(w, r)
}

// initMetrics registers the router-only families; the transport
// families (phomd_http_*) are the shell's.
func (rt *Router) initMetrics(reg *metrics.Registry) {
	rt.mShardReqs = reg.CounterVec("phomd_router_shard_requests_total",
		"Shard hops by shard and status code (code \"error\" = transport failure).", "shard", "code")
	rt.mShardSeconds = reg.HistogramVec("phomd_router_shard_seconds",
		"Shard hop latency by shard.", nil, "shard")
	rt.mShardErrors = reg.CounterVec("phomd_router_shard_errors_total",
		"Shard hops that failed (transport error or 5xx).", "shard")
	rt.mRetries = reg.CounterVec("phomd_router_retries_total",
		"Idempotent reads retried against another replica.", "shard")
	rt.mRedirects = reg.Counter("phomd_router_redirects_total",
		"Mutations re-sent after a 421 Misdirected redirect.")
	rt.mPartial = reg.Counter("phomd_router_partial_total",
		"Scatter-gather responses served incomplete under ?partial=1.")
	rt.mFanout = reg.Histogram("phomd_router_fanout_shards",
		"Shards contacted per scatter-gather request.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	rt.mEndpointUp = reg.GaugeVec("phomd_router_endpoint_up",
		"1 when the endpoint's last /readyz probe succeeded.", "endpoint")
	rt.mEndpointLag = reg.GaugeVec("phomd_router_endpoint_lag",
		"X-Replication-Lag reported by the endpoint's last probe.", "endpoint")
}

func (rt *Router) initMux() {
	route := rt.shell.Route
	route("POST /v1/graphs", rt.handleRegister)
	route("GET /v1/graphs", rt.handleList)
	route("GET /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		rt.forwardRead(w, r, r.PathValue("name"), nil)
	})
	route("PATCH /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		rt.forwardMutation(w, r, r.PathValue("name"))
	})
	route("DELETE /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		rt.forwardMutation(w, r, r.PathValue("name"))
	})
	route("POST /v1/match", rt.handleMatch)
	route("POST /v1/match/batch", rt.handleBatch)
	route("POST /v1/search", rt.handleSearch)
	route("POST /v1/admin/snapshot", rt.handleSnapshot)
	route("GET /v1/stats", rt.handleStats)
	route("GET /v1/cluster", rt.handleCluster)
	route("GET /readyz", rt.readyz)
}

// ---------------------------------------------------------------------------
// Shard hops

// hop is one forwarded request's outcome.
type hop struct {
	shard    string
	endpoint string
	status   int
	header   http.Header
	body     []byte
	err      error
}

// failed reports whether the hop should count as a shard failure
// (transport error or 5xx).
func (h hop) failed() bool { return h.err != nil || h.status >= 500 }

// do forwards one request to url (an absolute URL including path and
// query). The hop runs under its own child span, whose traceparent is
// propagated to the shard so the shard's trace files under the same
// trace id — /debug/traces/{id} on the router shows the fan-out, the
// same id on the shard shows that hop's server-side tree.
func (rt *Router) do(ctx context.Context, r *http.Request, sp trace.Span, shard, url, method string, body []byte) hop {
	endpoint := url
	if i := strings.Index(url, "/v1/"); i > 0 {
		endpoint = url[:i]
	}
	h := hop{shard: shard, endpoint: endpoint}
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		h.err = err
		return h
	}
	req.Header.Set("Content-Type", "application/json")
	// The shell put the request's id — the client's or a generated one —
	// in the context; forwarding it files the shard's access-log line
	// and trace under the same X-Request-ID the client got back.
	if id := engine.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	hsp := sp.Child("router.shard")
	if hsp.Active() {
		hsp.SetStr("shard", shard)
		hsp.SetStr("endpoint", endpoint)
		req.Header.Set("traceparent", hsp.Traceparent())
	} else if tp := r.Header.Get("traceparent"); tp != "" {
		// Router tracing off but the caller traces: pass theirs through
		// so the shard still files under the caller's id.
		req.Header.Set("traceparent", tp)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	elapsed := time.Since(start)
	rt.mShardSeconds.With(shard).Observe(elapsed.Seconds())
	if err != nil {
		h.err = err
		rt.mShardReqs.With(shard, "error").Inc()
		rt.mShardErrors.With(shard).Inc()
		if hsp.Active() {
			hsp.SetStr("error", err.Error())
			hsp.EndAfter(elapsed)
		}
		return h
	}
	defer resp.Body.Close()
	h.status = resp.StatusCode
	h.header = resp.Header
	h.body, h.err = io.ReadAll(io.LimitReader(resp.Body, routerMaxBody))
	rt.mShardReqs.With(shard, strconv.Itoa(resp.StatusCode)).Inc()
	if h.failed() {
		rt.mShardErrors.With(shard).Inc()
	}
	if hsp.Active() {
		hsp.SetInt("http_status", int64(resp.StatusCode))
		hsp.EndAfter(elapsed)
	}
	return h
}

// shardCtx derives a per-shard hop deadline from the request deadline:
// 10% of the remaining budget (clamped to [5ms, 250ms]) is reserved
// for the router's own merge and write, so a slow shard times out
// while the router can still answer within the request's bound.
func shardCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	margin := time.Until(dl) / 10
	if margin < 5*time.Millisecond {
		margin = 5 * time.Millisecond
	}
	if margin > 250*time.Millisecond {
		margin = 250 * time.Millisecond
	}
	if shardDL := dl.Add(-margin); shardDL.After(time.Now()) {
		return context.WithDeadline(ctx, shardDL)
	}
	return context.WithCancel(ctx)
}

// tryRead forwards an idempotent read to the shard, trying the
// health-ordered replicas: the first hop that neither errors nor
// answers a retryable 5xx wins; otherwise ONE retry runs against the
// next replica in the order. 504 is not retried — the budget that
// produced it is already spent, and a second shard would time out the
// same way. Mutations never come through here.
func (rt *Router) tryRead(ctx context.Context, r *http.Request, sp trace.Span, shardIdx int, uri string, body []byte) hop {
	shard := rt.ring.Config().Shards[shardIdx]
	order := rt.health.readOrder(shardIdx, rt.opts.MaxLag)
	var last hop
	for attempt, ep := range order {
		if attempt > 1 {
			break // first try + one retry, never more
		}
		last = rt.do(ctx, r, sp, shard.Name, ep+uri, r.Method, body)
		if !last.failed() || last.status == http.StatusGatewayTimeout || ctx.Err() != nil {
			return last
		}
		if attempt == 0 && len(order) > 1 {
			rt.mRetries.With(shard.Name).Inc()
		}
	}
	return last
}

// relay writes a shard hop's response through to the client verbatim
// (status, JSON body, replication-lag disclosure), stamping which
// shard served it.
func (rt *Router) relay(w http.ResponseWriter, h hop) {
	if h.err != nil {
		writeErrorShards(w, http.StatusBadGateway,
			fmt.Errorf("shard %s unreachable: %v", h.shard, h.err), []string{h.shard})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Phomd-Shard", h.shard)
	if lag := h.header.Get("X-Replication-Lag"); lag != "" {
		w.Header().Set("X-Replication-Lag", lag)
	}
	w.WriteHeader(h.status)
	_, _ = w.Write(h.body)
}

// ---------------------------------------------------------------------------
// Mutations

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing graph name"))
		return
	}
	rt.forwardMutationNamed(w, r, req.Name, body)
}

func (rt *Router) forwardMutation(w http.ResponseWriter, r *http.Request, name string) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if len(body) == 0 {
		body = nil
	}
	rt.forwardMutationNamed(w, r, name, body)
}

// forwardMutationNamed routes a mutation to the owning shard's
// primary. If the primary answers 421 Misdirected (the configured
// primary is actually a follower — a stale ring after a promotion),
// the Location header names the real primary and the router follows
// it exactly once. Mutations are never retried on failure: a
// connection error after the request was sent is indistinguishable
// from a success whose ack was lost, and replaying a register or
// patch is not idempotent.
func (rt *Router) forwardMutationNamed(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	sp := trace.SpanFromContext(r.Context())
	shard := rt.ring.Owner(name)
	sp.SetStr("owner_shard", shard.Name)
	ctx, cancel := shardCtx(r.Context())
	defer cancel()
	h := rt.do(ctx, r, sp, shard.Name, shard.Primary()+r.URL.RequestURI(), r.Method, body)
	if h.err == nil && h.status == http.StatusMisdirectedRequest {
		if loc := h.header.Get("Location"); loc != "" {
			rt.mRedirects.Inc()
			sp.SetStr("redirected_to", loc)
			h = rt.do(ctx, r, sp, shard.Name, loc, r.Method, body)
		}
	}
	if h.err != nil {
		log.Printf("cluster: mutation %s %s to shard %s failed (not retried): %v",
			r.Method, r.URL.Path, shard.Name, h.err)
	}
	rt.relay(w, h)
}

// ---------------------------------------------------------------------------
// Single-graph reads

func (rt *Router) handleMatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if req.Graph == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing graph name"))
		return
	}
	rt.forwardRead(w, r, req.Graph, body)
}

// forwardRead balances a single-graph read across the owning shard's
// replicas within the staleness bound, retrying once.
func (rt *Router) forwardRead(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	if body == nil && r.Method != http.MethodGet {
		var ok bool
		if body, ok = readBody(w, r); !ok {
			return
		}
	}
	sp := trace.SpanFromContext(r.Context())
	shardIdx := rt.ring.OwnerIndex(name)
	sp.SetStr("owner_shard", rt.ring.Config().Shards[shardIdx].Name)
	ctx, cancel := shardCtx(r.Context())
	defer cancel()
	rt.relay(w, rt.tryRead(ctx, r, sp, shardIdx, r.URL.RequestURI(), body))
}

// ---------------------------------------------------------------------------
// Scatter-gather

// wantPartial reports whether the client opted into partial results
// (?partial=1): serve what the healthy shards returned, flagged
// incomplete, instead of failing the whole request.
func wantPartial(r *http.Request) bool {
	v := r.URL.Query().Get("partial")
	return v == "1" || v == "true"
}

// scatter fans one request to every shard concurrently (each hop
// balanced across that shard's replicas, one retry) and returns the
// per-shard outcomes, indexed like Config().Shards.
func (rt *Router) scatter(r *http.Request, uri string, body []byte) []hop {
	sp := trace.SpanFromContext(r.Context())
	shards := rt.ring.Config().Shards
	ctx, cancel := shardCtx(r.Context())
	defer cancel()
	out := make([]hop, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = rt.tryRead(ctx, r, sp, i, uri, body)
		}(i)
	}
	wg.Wait()
	rt.mFanout.Observe(float64(len(shards)))
	return out
}

// splitHops buckets scatter outcomes: served (200), a client error to
// relay as-is (4xx — every shard rejects the same bad request the
// same way, so the first is representative), and failed shard names.
func splitHops(hops []hop) (served []hop, clientErr *hop, failed []string) {
	for i := range hops {
		h := hops[i]
		switch {
		case h.failed():
			failed = append(failed, h.shard)
		case h.status == http.StatusOK:
			served = append(served, h)
		default:
			if clientErr == nil {
				clientErr = &hops[i]
			}
		}
	}
	return served, clientErr, failed
}

// SearchResponse is the router's scatter-gather search result: the
// single-node wire shape plus the fan-out disclosure. When every
// shard served, Hits is bit-identical to what one node holding the
// whole catalog would return (see the merge-exactness argument in
// DESIGN.md §11) and Incomplete is omitted.
type SearchResponse struct {
	httpapi.SearchResponse
	ShardsServed int      `json:"shards_served"`
	ShardsFailed []string `json:"shards_failed,omitempty"`
	Incomplete   bool     `json:"incomplete,omitempty"`
}

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		K    int    `json:"k"`
		Algo string `json:"algo"`
	}
	_ = json.Unmarshal(body, &req) // malformed bodies are the shards' 400 to give

	hops := rt.scatter(r, r.URL.RequestURI(), body)
	served, clientErr, failed := splitHops(hops)
	if clientErr != nil {
		rt.relay(w, *clientErr)
		return
	}
	if len(failed) > 0 && !wantPartial(r) {
		writeErrorShards(w, http.StatusBadGateway,
			fmt.Errorf("search incomplete: %d of %d shards failed (%s); retry or pass ?partial=1",
				len(failed), rt.ring.Shards(), strings.Join(failed, ", ")), failed)
		return
	}
	if len(failed) > 0 {
		rt.mPartial.Inc()
	}
	if len(served) == 0 {
		writeErrorShards(w, http.StatusBadGateway,
			fmt.Errorf("search failed: no shard reachable"), failed)
		return
	}

	// Decode the shard-local top-k lists and fold them through the
	// exact global ordering. Each shard returns its best k under the
	// same total order (score desc, tie desc, name asc — search.Better),
	// and every global top-k member is necessarily in its own shard's
	// local top-k, so the merge is exact, not approximate.
	var out SearchResponse
	top := search.NewTopK(0) // k resolved below once a shard reply names it
	algo := req.Algo
	k := 0
	first := true
	for _, h := range served {
		var sr httpapi.SearchResponse
		if err := json.Unmarshal(h.body, &sr); err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Errorf("shard %s: undecodable search response: %v", h.shard, err))
			return
		}
		if first {
			out.Algo, out.K, out.PatternNodes = sr.Algo, sr.K, sr.PatternNodes
			algo, k = sr.Algo, sr.K
			top = search.NewTopK(k)
			first = false
		}
		for _, hit := range sr.Hits {
			_, tie := engine.RankScore(engine.Algorithm(algo), engine.Result{Holds: hit.Holds, QualCard: hit.QualCard, QualSim: hit.QualSim})
			top.Push(search.Hit{Name: hit.Graph, Score: hit.Score, Tie: tie, Payload: hit})
		}
		out.Stats.Graphs += sr.Stats.Graphs
		out.Stats.Candidates += sr.Stats.Candidates
		out.Stats.Pruned += sr.Stats.Pruned
		out.Stats.Matched += sr.Stats.Matched
		out.Stats.Skipped += sr.Stats.Skipped
		out.Stats.Missing += sr.Stats.Missing
		if sr.Stats.Stage1US > out.Stats.Stage1US {
			out.Stats.Stage1US = sr.Stats.Stage1US
		}
		if sr.Stats.Stage2US > out.Stats.Stage2US {
			out.Stats.Stage2US = sr.Stats.Stage2US
		}
	}
	if out.Stats.Graphs > 0 {
		out.Stats.PruneRate = float64(out.Stats.Pruned) / float64(out.Stats.Graphs)
	}
	out.Hits = make([]httpapi.SearchHitResponse, 0, top.Len())
	for i, h := range top.Ranked() {
		hit := h.Payload.(httpapi.SearchHitResponse)
		hit.Rank = i + 1
		out.Hits = append(out.Hits, hit)
	}
	out.ShardsServed = len(served)
	out.ShardsFailed = failed
	out.Incomplete = len(failed) > 0
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	hops := rt.scatter(r, r.URL.RequestURI(), nil)
	served, clientErr, failed := splitHops(hops)
	if clientErr != nil {
		rt.relay(w, *clientErr)
		return
	}
	if len(failed) > 0 && !wantPartial(r) {
		writeErrorShards(w, http.StatusBadGateway,
			fmt.Errorf("listing incomplete: shards failed: %s", strings.Join(failed, ", ")), failed)
		return
	}
	if len(failed) > 0 {
		rt.mPartial.Inc()
	}
	union := make(map[string]bool)
	for _, h := range served {
		var lr struct {
			Graphs []string `json:"graphs"`
		}
		if err := json.Unmarshal(h.body, &lr); err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Errorf("shard %s: undecodable list response: %v", h.shard, err))
			return
		}
		for _, n := range lr.Graphs {
			union[n] = true
		}
	}
	names := make([]string, 0, len(union))
	for n := range union {
		names = append(names, n)
	}
	sort.Strings(names)
	out := struct {
		Graphs       []string `json:"graphs"`
		ShardsFailed []string `json:"shards_failed,omitempty"`
		Incomplete   bool     `json:"incomplete,omitempty"`
	}{Graphs: names, ShardsFailed: failed, Incomplete: len(failed) > 0}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var batch struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}

	// Partition the batch by owning shard, preserving positions, then
	// scatter one sub-batch per involved shard and reassemble.
	results := make([]json.RawMessage, len(batch.Requests))
	shardItems := make(map[int][]json.RawMessage)
	shardPos := make(map[int][]int)
	for i, raw := range batch.Requests {
		var item struct {
			Graph string `json:"graph"`
		}
		if err := json.Unmarshal(raw, &item); err != nil || item.Graph == "" {
			results[i] = mustJSON(map[string]string{"error": "missing graph name"})
			continue
		}
		s := rt.ring.OwnerIndex(item.Graph)
		shardItems[s] = append(shardItems[s], raw)
		shardPos[s] = append(shardPos[s], i)
	}

	sp := trace.SpanFromContext(r.Context())
	ctx, cancel := shardCtx(r.Context())
	defer cancel()
	type subResult struct {
		shard int
		h     hop
	}
	ch := make(chan subResult, len(shardItems))
	for s, items := range shardItems {
		sub := mustJSON(map[string]any{"requests": items})
		go func(s int, sub []byte) {
			ch <- subResult{s, rt.tryRead(ctx, r, sp, s, r.URL.RequestURI(), sub)}
		}(s, sub)
	}
	rt.mFanout.Observe(float64(len(shardItems)))
	var failed []string
	for range shardItems {
		sr := <-ch
		pos := shardPos[sr.shard]
		if sr.h.failed() {
			failed = append(failed, sr.h.shard)
			msg := mustJSON(map[string]string{"error": fmt.Sprintf("shard %s failed: %s", sr.h.shard, hopError(sr.h))})
			for _, i := range pos {
				results[i] = msg
			}
			continue
		}
		var br struct {
			Results []json.RawMessage `json:"results"`
			Error   string            `json:"error"`
		}
		if err := json.Unmarshal(sr.h.body, &br); err != nil || (sr.h.status == http.StatusOK && len(br.Results) != len(pos)) {
			failed = append(failed, sr.h.shard)
			msg := mustJSON(map[string]string{"error": fmt.Sprintf("shard %s: undecodable batch response", sr.h.shard)})
			for _, i := range pos {
				results[i] = msg
			}
			continue
		}
		if sr.h.status != http.StatusOK {
			// A wholesale shard rejection (429, 400): every item carries it.
			msg := mustJSON(map[string]string{"error": fmt.Sprintf("shard %s: %s", sr.h.shard, br.Error)})
			for _, i := range pos {
				results[i] = msg
			}
			continue
		}
		for j, i := range pos {
			results[i] = br.Results[j] // positional restore
		}
	}
	if len(failed) > 0 && !wantPartial(r) {
		writeErrorShards(w, http.StatusBadGateway,
			fmt.Errorf("batch incomplete: shards failed: %s", strings.Join(failed, ", ")), failed)
		return
	}
	if len(failed) > 0 {
		rt.mPartial.Inc()
	}
	out := struct {
		Results      []json.RawMessage `json:"results"`
		ShardsFailed []string          `json:"shards_failed,omitempty"`
		Incomplete   bool              `json:"incomplete,omitempty"`
	}{Results: results, ShardsFailed: failed, Incomplete: len(failed) > 0}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func hopError(h hop) string {
	if h.err != nil {
		return h.err.Error()
	}
	return http.StatusText(h.status)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	hops := rt.scatter(r, "/v1/stats", nil)
	shards := make(map[string]json.RawMessage, len(hops))
	for _, h := range hops {
		if h.failed() {
			shards[h.shard] = mustJSON(map[string]string{"error": hopError(h)})
			continue
		}
		shards[h.shard] = json.RawMessage(h.body)
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"ring_version": rt.ring.Version(),
		"shards":       shards,
	})
}

// handleSnapshot fans the compaction request to every shard primary.
// Followers compact via their own primaries, so only primaries are
// addressed; any failure turns the whole response into a 502 so
// snapshot scripts gate correctly, but successful shards' stats are
// still included.
func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sp := trace.SpanFromContext(r.Context())
	shards := rt.ring.Config().Shards
	ctx, cancel := shardCtx(r.Context())
	defer cancel()
	hops := make([]hop, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s ShardConfig) {
			defer wg.Done()
			hops[i] = rt.do(ctx, r, sp, s.Name, s.Primary()+"/v1/admin/snapshot", http.MethodPost, nil)
		}(i, s)
	}
	wg.Wait()
	out := make(map[string]json.RawMessage, len(hops))
	var failed []string
	for _, h := range hops {
		if h.failed() {
			failed = append(failed, h.shard)
			out[h.shard] = mustJSON(map[string]string{"error": hopError(h)})
			continue
		}
		out[h.shard] = json.RawMessage(h.body)
	}
	status := http.StatusOK
	if len(failed) > 0 {
		status = http.StatusBadGateway
	}
	httpapi.WriteJSON(w, status, map[string]any{"shards": out, "shards_failed": failed})
}

// ---------------------------------------------------------------------------
// Introspection

// ClusterShard is one shard's row in GET /v1/cluster.
type ClusterShard struct {
	Name   string `json:"name"`
	VNodes int    `json:"vnodes"`
	// Graphs counts the names the shard holds (-1 when unreachable);
	// Sample shows up to five of them; Misplaced counts held names the
	// ring assigns elsewhere (non-zero means a ring change left data
	// behind — a rebalance migration is pending).
	Graphs    int              `json:"graphs"`
	Sample    []string         `json:"sample,omitempty"`
	Misplaced int              `json:"misplaced"`
	Endpoints []EndpointHealth `json:"endpoints"`
	Error     string           `json:"error,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: the serialized ring
// (so clients rebuild the exact placement, version included), live
// endpoint health, and what each shard actually holds.
type ClusterResponse struct {
	Ring      Config         `json:"ring"`
	Shards    []ClusterShard `json:"shards"`
	Reachable bool           `json:"reachable"`
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	// Re-probe now so the health shown is live, not up to an interval
	// stale — this is the endpoint operators stare at mid-incident.
	rt.health.probeAll()
	cfg := rt.ring.Config()
	hops := rt.scatter(r, "/v1/graphs", nil)
	out := ClusterResponse{Ring: cfg, Reachable: true}
	for i, s := range cfg.Shards {
		row := ClusterShard{
			Name:      s.Name,
			VNodes:    cfg.VNodes,
			Graphs:    -1,
			Endpoints: rt.health.snapshot(i),
		}
		h := hops[i]
		if h.failed() || h.status != http.StatusOK {
			row.Error = hopError(h)
			out.Reachable = false
		} else {
			var lr struct {
				Graphs []string `json:"graphs"`
			}
			if err := json.Unmarshal(h.body, &lr); err != nil {
				row.Error = "undecodable graph list"
				out.Reachable = false
			} else {
				row.Graphs = len(lr.Graphs)
				for _, n := range lr.Graphs {
					if rt.ring.OwnerIndex(n) != i {
						row.Misplaced++
					}
				}
				if len(lr.Graphs) > 5 {
					lr.Graphs = lr.Graphs[:5]
				}
				row.Sample = lr.Graphs
			}
		}
		out.Shards = append(out.Shards, row)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// readyz: the router is ready when every shard has at least one
// endpoint that is ready (or not yet probed — a cold router reports
// ready rather than flapping while the first probe round runs).
func (rt *Router) readyz(w http.ResponseWriter, r *http.Request) {
	var down []string
	cfg := rt.ring.Config()
	for i, s := range cfg.Shards {
		ok := false
		for _, eh := range rt.health.snapshot(i) {
			if eh.Ready || !eh.Probed {
				ok = true
				break
			}
		}
		if !ok {
			down = append(down, s.Name)
		}
	}
	if len(down) > 0 {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "degraded", "shards_down": down})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// ---------------------------------------------------------------------------
// Plumbing

type errorResponse struct {
	Error        string   `json:"error"`
	TraceID      string   `json:"trace_id,omitempty"`
	FailedShards []string `json:"failed_shards,omitempty"`
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, routerMaxBody)
	b, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return b, true
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorShards(w, status, err, nil)
}

func writeErrorShards(w http.ResponseWriter, status int, err error, failed []string) {
	httpapi.WriteJSON(w, status, errorResponse{Error: err.Error(), TraceID: httpapi.TraceID(w), FailedShards: failed})
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // marshalling maps of strings cannot fail
	}
	return b
}
