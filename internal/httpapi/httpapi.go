// Package httpapi is the JSON-over-HTTP transport of the phomd server.
// It is a thin, stateless layer over engine.Engine: graphs arrive in
// the documented internal/graph wire format ({"nodes": [...], "edges":
// [[from, to], ...]}), and every matching decision — scheduling,
// coalescing, shared closures — lives below in the engine and catalog.
//
// Routes:
//
//	POST   /v1/graphs          register a data graph {"name": ..., "graph": {...}}
//	GET    /v1/graphs          list registered graph names (sorted)
//	GET    /v1/graphs/{name}   describe one graph (size, resident closure bytes)
//	PATCH  /v1/graphs/{name}   apply a live edge/node patch (add_nodes, add_edges,
//	                           del_edges, set_content); durable before acknowledged
//	                           when the server runs with -store
//	DELETE /v1/graphs/{name}   drop a registered graph and its cached indexes
//	POST   /v1/match           one match request (?explain=1 adds the per-stage breakdown)
//	POST   /v1/match/batch     {"requests": [...]} dispatched concurrently
//	POST   /v1/search          rank the catalog against a pattern (top-k; ?explain=1 as above)
//	POST   /v1/admin/snapshot  compact the WAL into a fresh snapshot (store only)
//	GET    /v1/stats           engine + catalog + store counters
//	GET    /metrics            Prometheus text exposition of every layer
//	                           (OpenMetrics with exemplars via Accept)
//	GET    /debug/traces       flight recorder: recent + retained slow traces
//	GET    /debug/traces/{id}  one span tree, by trace id or X-Request-ID
//	GET    /healthz            liveness (process up)
//	GET    /readyz             readiness (store replayed, catalog warm)
//
// Observability and overload protection — request IDs, access log,
// per-route metrics, per-request deadlines and per-endpoint
// concurrency limits — live in observe.go's Shell, configured through
// Options / NewWithOptions; the cluster router serves through the same
// Shell.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"graphmatch/internal/catalog"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/repl"
	"graphmatch/internal/store"
	"graphmatch/internal/trace"
)

// DefaultXi is applied when a match request omits "xi". It matches the
// phom CLI default (the paper's experiments run ξ around 0.75–0.9);
// explicit 0 is honoured.
const DefaultXi = 0.75

// maxBodyBytes bounds request bodies; graphs beyond this belong in a
// bulk-loading path, not a JSON POST.
const maxBodyBytes = 64 << 20

// RegisterRequest is the body of POST /v1/graphs.
type RegisterRequest struct {
	Name  string       `json:"name"`
	Graph *graph.Graph `json:"graph"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// RemoveResponse acknowledges a DELETE /v1/graphs/{name}.
type RemoveResponse struct {
	Name    string `json:"name"`
	Removed bool   `json:"removed"`
}

// ContentPatch is one node-content rewrite inside a PatchRequest.
type ContentPatch struct {
	Node    int32  `json:"node"`
	Content string `json:"content"`
}

// PatchNode is one appended node inside a PatchRequest.
type PatchNode struct {
	Label   string  `json:"label"`
	Weight  float64 `json:"weight,omitempty"`
	Content string  `json:"content,omitempty"`
}

// PatchRequest is the body of PATCH /v1/graphs/{name}: a live edit of
// a registered graph. Semantics follow graph.Patch — added nodes get
// the next IDs (so add_edges may reference them), deletes run before
// adds, deleting an absent edge is an error. At least one field must
// be non-empty.
type PatchRequest struct {
	AddNodes   []PatchNode    `json:"add_nodes,omitempty"`
	SetContent []ContentPatch `json:"set_content,omitempty"`
	DelEdges   [][2]int32     `json:"del_edges,omitempty"`
	AddEdges   [][2]int32     `json:"add_edges,omitempty"`
}

// PatchResponse acknowledges a PATCH: the graph's new size. When the
// response arrives the patch is durable (if the server has a store)
// and the graph is already matchable and searchable in patched form.
type PatchResponse struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// SnapshotResponse is the body of POST /v1/admin/snapshot: the store
// counters after the compaction.
type SnapshotResponse struct {
	Store store.Stats `json:"store"`
}

// MatchRequest is the body of POST /v1/match and the element type of
// batch requests. Xi is a pointer so "absent" and "0" are
// distinguishable; absent means DefaultXi.
type MatchRequest struct {
	Pattern   *graph.Graph `json:"pattern"`
	Graph     string       `json:"graph"`
	Algo      string       `json:"algo"`
	Xi        *float64     `json:"xi,omitempty"`
	PathLimit int          `json:"path_limit,omitempty"`
	Sim       string       `json:"sim,omitempty"`
}

// MatchResponse is the result of one match request. Mapping pairs are
// [patternNode, dataNode], sorted by pattern node.
type MatchResponse struct {
	Algo         string     `json:"algo"`
	Graph        string     `json:"graph"`
	Holds        bool       `json:"holds"`
	Mapping      [][2]int32 `json:"mapping,omitempty"`
	Matched      int        `json:"matched"`
	PatternNodes int        `json:"pattern_nodes"`
	QualCard     float64    `json:"qual_card"`
	QualSim      float64    `json:"qual_sim"`
	ElapsedUS    int64      `json:"elapsed_us"`
	Coalesced    bool       `json:"coalesced"`
	Error        string     `json:"error,omitempty"`
	// TraceID and Explain are present only on ?explain=1 responses:
	// the request's trace id and its deterministic per-stage breakdown
	// (same stage set for the same query shape on every run).
	TraceID string        `json:"trace_id,omitempty"`
	Explain []trace.Stage `json:"explain,omitempty"`
}

// BatchRequest is the body of POST /v1/match/batch.
type BatchRequest struct {
	Requests []MatchRequest `json:"requests"`
}

// BatchResponse carries positional results for a batch.
type BatchResponse struct {
	Results []MatchResponse `json:"results"`
}

// GraphDetailResponse is the body of GET /v1/graphs/{name}: the
// catalog's view of one registered graph plus its degree statistics.
type GraphDetailResponse struct {
	catalog.GraphInfo
	AvgDeg float64 `json:"avg_deg"`
	MaxDeg int     `json:"max_deg"`
}

// SearchRequest is the body of POST /v1/search. Xi and MinResemblance
// are pointers so "absent" and "explicit 0" are distinguishable:
// absent xi means DefaultXi; absent min_resemblance means the server's
// configured default, explicit 0 disables pruning (exact search).
// MaxCandidates: 0 or absent applies the server default, -1 lifts the
// cap. K ≤ 0 applies the engine default top-k size.
type SearchRequest struct {
	Pattern        *graph.Graph `json:"pattern"`
	Algo           string       `json:"algo,omitempty"`
	Xi             *float64     `json:"xi,omitempty"`
	PathLimit      int          `json:"path_limit,omitempty"`
	Sim            string       `json:"sim,omitempty"`
	K              int          `json:"k,omitempty"`
	MaxCandidates  int          `json:"max_candidates,omitempty"`
	MinResemblance *float64     `json:"min_resemblance,omitempty"`
	NoPrefilter    bool         `json:"no_prefilter,omitempty"`
}

// SearchHitResponse is one ranked hit of a search.
type SearchHitResponse struct {
	Rank        int     `json:"rank"`
	Graph       string  `json:"graph"`
	Score       float64 `json:"score"`
	Holds       bool    `json:"holds"`
	Matched     int     `json:"matched"`
	QualCard    float64 `json:"qual_card"`
	QualSim     float64 `json:"qual_sim"`
	Containment float64 `json:"containment"`
	StructSim   float64 `json:"struct_sim"`
}

// SearchStatsResponse reports the per-stage search work: how much of
// the catalog the prefilter skipped and what each stage cost.
type SearchStatsResponse struct {
	Graphs     int     `json:"graphs"`
	Candidates int     `json:"candidates"`
	Pruned     int     `json:"pruned"`
	Matched    int     `json:"matched"`
	Missing    int     `json:"missing,omitempty"`
	PruneRate  float64 `json:"prune_rate"`
	Stage1US   int64   `json:"stage1_us"`
	Stage2US   int64   `json:"stage2_us"`
}

// SearchResponse is the body of a successful POST /v1/search.
type SearchResponse struct {
	Algo         string              `json:"algo"`
	K            int                 `json:"k"`
	PatternNodes int                 `json:"pattern_nodes"`
	Hits         []SearchHitResponse `json:"hits"`
	Stats        SearchStatsResponse `json:"stats"`
	// TraceID and Explain mirror MatchResponse's ?explain=1 fields.
	TraceID string        `json:"trace_id,omitempty"`
	Explain []trace.Stage `json:"explain,omitempty"`
}

// StatsResponse is the body of GET /v1/stats. Store is nil when the
// server runs without persistence; Replication is nil unless the
// server is a follower (phomd -follow).
type StatsResponse struct {
	Engine      engine.Stats `json:"engine"`
	Catalog     catalogStats `json:"catalog"`
	Store       *store.Stats `json:"store,omitempty"`
	Replication *repl.Stats  `json:"replication,omitempty"`
}

// catalogStats extends catalog.Stats with the derived hit rate so
// dashboards need no arithmetic.
type catalogStats struct {
	catalog.Stats
	HitRate float64 `json:"hit_rate"`
}

type errorResponse struct {
	Error string `json:"error"`
	// TraceID names the flight-recorder trace of the failed request
	// (when tracing is on), so a 429 or 504 can be followed up with
	// GET /debug/traces/{trace_id} or `phom trace <trace_id>`.
	TraceID string `json:"trace_id,omitempty"`
}

// New returns the phomd handler over e with default transport options
// (no deadline, no limits, no access log). See NewWithOptions.
func New(e *engine.Engine) http.Handler {
	return NewWithOptions(e, Options{})
}

type server struct {
	eng  *engine.Engine
	opts Options
}

func (s *server) registerGraph(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing graph name"))
		return
	}
	if req.Graph == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing graph"))
		return
	}
	if err := s.eng.RegisterCtx(r.Context(), req.Name, req.Graph); err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusCreated, RegisterResponse{
		Name:  req.Name,
		Nodes: req.Graph.NumNodes(),
		Edges: req.Graph.NumEdges(),
	})
}

func (s *server) listGraphs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]string{"graphs": s.eng.Catalog().Names()})
}

func (s *server) describeGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.eng.Catalog().Describe(name)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	out := GraphDetailResponse{GraphInfo: info}
	if g, err := s.eng.Catalog().Get(name); err == nil {
		st := graph.ComputeStats(g)
		out.AvgDeg = st.AvgDeg
		out.MaxDeg = st.MaxDeg
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *server) patchGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PatchRequest
	if !decode(w, r, &req) {
		return
	}
	// Validation — empty patch, bad node IDs, absent edges — lives in
	// catalog.Apply and surfaces as ErrBadPatch (400 via statusFor).
	g, err := s.eng.ApplyPatchCtx(r.Context(), name, req.toPatch())
	if err != nil {
		// catalog.ErrBadPatch → 400, ErrNotFound → 404, follower → 421
		// via statusFor; anything else (store I/O) is a genuine 500.
		s.writeMutationError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, PatchResponse{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()})
}

func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	st, err := s.eng.Snapshot()
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, SnapshotResponse{Store: st})
}

func (s *server) removeGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing graph name"))
		return
	}
	if err := s.eng.RemoveCtx(r.Context(), name); err != nil {
		s.writeMutationError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, RemoveResponse{Name: name, Removed: true})
}

func (s *server) match(w http.ResponseWriter, r *http.Request) {
	var req MatchRequest
	if !decode(w, r, &req) {
		return
	}
	ereq, err := req.toEngine()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res := s.eng.Match(r.Context(), ereq)
	if res.Err != nil {
		writeEngineError(w, res.Err)
		return
	}
	out := toResponse(req, res)
	if wantExplain(r) {
		out.TraceID, out.Explain = explainOf(r)
	}
	WriteJSON(w, http.StatusOK, out)
}

// wantExplain reports whether the request asked for the per-stage
// EXPLAIN breakdown (?explain=1).
func wantExplain(r *http.Request) bool {
	v := r.URL.Query().Get("explain")
	return v == "1" || v == "true"
}

// explainOf snapshots the request's live trace and derives the
// deterministic stage breakdown; empty when tracing is disabled.
func explainOf(r *http.Request) (string, []trace.Stage) {
	sp := trace.SpanFromContext(r.Context())
	td, ok := sp.Snapshot()
	if !ok {
		return "", nil
	}
	return td.ID.String(), td.Stages()
}

func (s *server) matchBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !decode(w, r, &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if s.opts.MaxBatch > 0 && len(batch.Requests) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds limit %d", len(batch.Requests), s.opts.MaxBatch))
		return
	}
	// Convert up front and dispatch only the well-formed items, so
	// malformed ones don't inflate engine counters with doomed submits.
	ereqs := make([]engine.Request, 0, len(batch.Requests))
	pos := make([]int, 0, len(batch.Requests))
	out := BatchResponse{Results: make([]MatchResponse, len(batch.Requests))}
	for i, mr := range batch.Requests {
		ereq, err := mr.toEngine()
		if err != nil {
			out.Results[i] = MatchResponse{Algo: mr.Algo, Graph: mr.Graph, Error: err.Error()}
			continue
		}
		ereqs = append(ereqs, ereq)
		pos = append(pos, i)
	}
	results := s.eng.MatchBatch(r.Context(), ereqs)
	shedAll := len(results) > 0
	for j, res := range results {
		i := pos[j]
		if res.Err != nil {
			out.Results[i] = MatchResponse{Algo: batch.Requests[i].Algo, Graph: batch.Requests[i].Graph, Error: res.Err.Error()}
			if !errors.Is(res.Err, engine.ErrOverloaded) {
				shedAll = false
			}
			continue
		}
		shedAll = false
		out.Results[i] = toResponse(batch.Requests[i], res)
	}
	// A batch the admission controller rejected wholesale is a 429 —
	// the client should back off, not inspect per-item errors.
	if shedAll {
		writeEngineError(w, results[0].Err)
		return
	}
	// Otherwise the batch as a whole is 200; per-item failures ride in
	// "error".
	WriteJSON(w, http.StatusOK, out)
}

func (s *server) search(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	ereq, err := req.toEngine()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res := s.eng.Search(r.Context(), ereq)
	if res.Err != nil {
		writeEngineError(w, res.Err)
		return
	}
	k := ereq.K
	if k <= 0 {
		k = engine.DefaultSearchK
	}
	out := SearchResponse{
		Algo:         string(ereq.Algo),
		K:            k,
		PatternNodes: req.Pattern.NumNodes(),
		Hits:         make([]SearchHitResponse, 0, len(res.Hits)),
		Stats: SearchStatsResponse{
			Graphs:     res.Stats.Graphs,
			Candidates: res.Stats.Candidates,
			Pruned:     res.Stats.Pruned,
			Matched:    res.Stats.Matched,
			Missing:    res.Stats.Missing,
			PruneRate:  res.Stats.PruneRate,
			Stage1US:   res.Stats.Stage1.Microseconds(),
			Stage2US:   res.Stats.Stage2.Microseconds(),
		},
	}
	for i, h := range res.Hits {
		out.Hits = append(out.Hits, SearchHitResponse{
			Rank:        i + 1,
			Graph:       h.Graph,
			Score:       h.Score,
			Holds:       h.Holds,
			Matched:     h.Matched,
			QualCard:    h.QualCard,
			QualSim:     h.QualSim,
			Containment: h.Containment,
			StructSim:   h.StructSim,
		})
	}
	if wantExplain(r) {
		out.TraceID, out.Explain = explainOf(r)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	cs := s.eng.Catalog().Stats()
	out := StatsResponse{
		Engine:  s.eng.Stats(),
		Catalog: catalogStats{Stats: cs, HitRate: cs.HitRate()},
	}
	if st, ok := s.eng.StoreStats(); ok {
		out.Store = &st
	}
	if rs, ok := s.eng.ReplStats(); ok {
		out.Replication = &rs
	}
	WriteJSON(w, http.StatusOK, out)
}

// toPatch converts the wire patch to the graph-level one.
func (pr PatchRequest) toPatch() *graph.Patch {
	p := &graph.Patch{}
	for _, n := range pr.AddNodes {
		p.AddNodes = append(p.AddNodes, graph.Node{Label: n.Label, Weight: n.Weight, Content: n.Content})
	}
	for _, cu := range pr.SetContent {
		p.SetContent = append(p.SetContent, graph.ContentUpdate{Node: graph.NodeID(cu.Node), Content: cu.Content})
	}
	for _, e := range pr.DelEdges {
		p.DelEdges = append(p.DelEdges, [2]graph.NodeID{graph.NodeID(e[0]), graph.NodeID(e[1])})
	}
	for _, e := range pr.AddEdges {
		p.AddEdges = append(p.AddEdges, [2]graph.NodeID{graph.NodeID(e[0]), graph.NodeID(e[1])})
	}
	return p
}

// toEngine validates the wire request and converts it. Invalid
// requests error here so bad algorithm names surface as 400s even when
// the engine would also reject them.
func (mr MatchRequest) toEngine() (engine.Request, error) {
	if mr.Pattern == nil {
		return engine.Request{}, fmt.Errorf("missing pattern")
	}
	if mr.Graph == "" {
		return engine.Request{}, fmt.Errorf("missing graph name")
	}
	algo, err := engine.ParseAlgorithm(mr.Algo)
	if err != nil {
		return engine.Request{}, err
	}
	xi := DefaultXi
	if mr.Xi != nil {
		xi = *mr.Xi
	}
	if xi < 0 || xi > 1 {
		return engine.Request{}, fmt.Errorf("xi %v outside [0, 1]", xi)
	}
	switch engine.SimKind(mr.Sim) {
	case "", engine.SimLabel, engine.SimContent:
	default:
		return engine.Request{}, fmt.Errorf("unknown similarity kind %q", mr.Sim)
	}
	return engine.Request{
		Pattern:   mr.Pattern,
		GraphName: mr.Graph,
		Algo:      algo,
		Xi:        xi,
		PathLimit: mr.PathLimit,
		Sim:       engine.SimKind(mr.Sim),
	}, nil
}

// toEngine validates the wire search request and converts it. The
// engine's "0 means server default" convention is mapped here: an
// explicit wire 0 for min_resemblance becomes the engine's "no
// pruning" (-1), and max_candidates -1 becomes the engine's unlimited.
func (sr SearchRequest) toEngine() (engine.SearchRequest, error) {
	if sr.Pattern == nil {
		return engine.SearchRequest{}, fmt.Errorf("missing pattern")
	}
	algo := sr.Algo
	if algo == "" {
		algo = string(engine.MaxSim)
	}
	parsed, err := engine.ParseAlgorithm(algo)
	if err != nil {
		return engine.SearchRequest{}, err
	}
	xi := DefaultXi
	if sr.Xi != nil {
		xi = *sr.Xi
	}
	if xi < 0 || xi > 1 {
		return engine.SearchRequest{}, fmt.Errorf("xi %v outside [0, 1]", xi)
	}
	switch engine.SimKind(sr.Sim) {
	case "", engine.SimLabel, engine.SimContent:
	default:
		return engine.SearchRequest{}, fmt.Errorf("unknown similarity kind %q", sr.Sim)
	}
	k := sr.K
	if k < 0 {
		return engine.SearchRequest{}, fmt.Errorf("k %d negative", k)
	}
	maxCand := sr.MaxCandidates
	if maxCand < -1 {
		return engine.SearchRequest{}, fmt.Errorf("max_candidates %d invalid (want -1, 0 or a positive cap)", maxCand)
	}
	minRes := 0.0
	if sr.MinResemblance != nil {
		minRes = *sr.MinResemblance
		if minRes < 0 || minRes > 1 {
			return engine.SearchRequest{}, fmt.Errorf("min_resemblance %v outside [0, 1]", minRes)
		}
		if minRes == 0 {
			minRes = -1 // explicit 0: disable pruning rather than "use default"
		}
	}
	return engine.SearchRequest{
		Pattern:        sr.Pattern,
		Algo:           parsed,
		Xi:             xi,
		PathLimit:      sr.PathLimit,
		Sim:            engine.SimKind(sr.Sim),
		K:              k,
		MaxCandidates:  maxCand,
		MinResemblance: minRes,
		NoPrefilter:    sr.NoPrefilter,
	}, nil
}

func toResponse(req MatchRequest, res engine.Result) MatchResponse {
	out := MatchResponse{
		Algo:         req.Algo,
		Graph:        req.Graph,
		Holds:        res.Holds,
		Matched:      len(res.Mapping),
		PatternNodes: req.Pattern.NumNodes(),
		QualCard:     res.QualCard,
		QualSim:      res.QualSim,
		ElapsedUS:    res.Elapsed.Microseconds(),
		Coalesced:    res.Coalesced,
	}
	if len(res.Mapping) > 0 {
		out.Mapping = make([][2]int32, 0, len(res.Mapping))
		for _, v := range res.Mapping.Domain() { // Domain is sorted
			out.Mapping = append(out.Mapping, [2]int32{int32(v), int32(res.Mapping[v])})
		}
	}
	return out
}

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return false
	}
	return true
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, catalog.ErrBadPatch):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrExactLimit):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrNoStore):
		return http.StatusConflict
	case errors.Is(err, engine.ErrReadOnly):
		// 421 Misdirected Request: this replica cannot take the
		// mutation; the Location header (writeMutationError) names the
		// primary that can.
		return http.StatusMisdirectedRequest
	case errors.Is(err, engine.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrDeadline):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error(), TraceID: TraceID(w)})
}

// writeMutationError is writeError for the mutation routes, plus the
// follower redirect: a read-only replica answers 421 with a Location
// header pointing at the primary's copy of the same resource, so
// clients can repeat the mutation there.
func (s *server) writeMutationError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, engine.ErrReadOnly) {
		if p := s.eng.PrimaryURL(); p != "" {
			w.Header().Set("Location", p+r.URL.RequestURI())
		}
	}
	writeError(w, statusFor(err), err)
}
