package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/search"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/store"
)

// The traced run attributes time to layers without touching the
// program: it links the same packages phomd is built from, replays the
// head of the workload single-threaded, and times the call into each
// layer's public entry point from here. Layers are called one after
// another, not nested, so a span's children do not lie inside its
// interval; Parent records which call would have caused which inside
// the server, and self time is the parent's duration minus its
// children's durations. The untraced rounds never see any of this.

// spansFile is where a traced run leaves its spans when the benchmark
// exits (git-ignored by the repository's BENCH_*.json rule): an array
// with one {workload, spans} object per workload run.
const spansFile = "BENCH_spans.json"

// denseLimit bounds the dense closure rows the traced run will build
// just to time the other tier on the same requests.
const denseLimit = 512 << 20

// span is one timed call. Op is the operation index in the merged
// request sequence (-1 for set-up work); Parent is a span ID or -1.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Op         int    `json:"op"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

type tracer struct {
	t0    time.Time
	spans []span
}

// run times fn as a span. With allocs, the process-wide allocation
// counters are read just outside the timed interval (the run is
// single-threaded apart from the engine's own workers, whose
// allocations belong to the request anyway).
func (t *tracer) run(name string, op, parent int, allocs bool, fn func()) int {
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	if allocs {
		runtime.ReadMemStats(&m1)
	}
	return t.add(name, op, parent, start, end, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
}

func (t *tracer) add(name string, op, parent int, start, end time.Duration, allocs, allocBytes uint64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(),
		Allocs: allocs, AllocBytes: allocBytes,
	})
	return id
}

// named returns the spans of one name, optionally only those of
// operations of one kind.
func (t *tracer) named(name string, kinds map[int]opKind, kind opKind) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (kinds == nil || kinds[s.Op] == kind) {
			out = append(out, s)
		}
	}
	return out
}

func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

// selfTimes is each span's duration minus its children's.
func (t *tracer) selfTimes(ss []span) []float64 {
	children := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.ms()
		}
	}
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms() - children[s.ID]
	}
	return out
}

// traceRig is the in-process copy of the serving stack the traced run
// calls into.
type traceRig struct {
	t   *tracer
	w   *workload
	ctx context.Context

	// A: the whole stack as phomd wires it, on its own store.
	eng     *engine.Engine
	handler http.Handler
	// B: a bare catalog and search index, for the calls that would
	// mutate A a second time (patches) or that A does not export
	// (stage-1 candidates).
	cat *catalog.Catalog
	idx *search.Index
	// C: a scratch WAL for timing appends and fsyncs on their own.
	wal *store.Store

	kinds  map[int]opKind
	dense  map[string]denseRows
	checks int // certificate or quality disagreements
}

type denseRows struct {
	of   *closure.Reach
	rows *closure.Rows // nil when over denseLimit
}

// traceRun replays the first traceOps operations of w through the rig
// and derives the per-layer metrics. tcpP50 is the untraced read p50,
// for httpapi.wire_ms.
func traceRun(o runOpts, w *workload, tcpP50 float64) (layers []metric, spans []span, checkFailures int, err error) {
	t := &tracer{t0: time.Now()}
	r := &traceRig{t: t, w: w, ctx: context.Background(), kinds: map[int]opKind{}, dense: map[string]denseRows{}}

	// Boot path: replay, register, closure and index builds.
	dirA := filepath.Join(o.workDir, "trace-a")
	if _, _, err := prepareStore(dirA, w); err != nil {
		return nil, nil, 0, err
	}
	var replayErr error
	t.run("store.replay", -1, -1, false, func() {
		st, err := store.OpenReadOnly(dirA)
		if err == nil {
			_, _, err = st.FoldState()
			st.Close()
		}
		replayErr = err
	})
	if replayErr != nil {
		return nil, nil, 0, replayErr
	}
	workers := runtime.GOMAXPROCS(0)
	opts := engine.Options{ // phomd's defaults, plus the workload's flags
		StorePath: dirA, SnapshotEvery: 1000, PatchCoalesceCount: 64, ExactNodeLimit: 16,
		MaxClosures: w.maxClosures, MaxPending: 5 * workers,
	}
	if w.unlimitedPending {
		opts.MaxPending = 0
	}
	eng, err := engine.Open(opts)
	if err != nil {
		return nil, nil, 0, err
	}
	defer eng.Close()
	r.eng = eng
	r.handler = httpapi.NewWithOptions(eng, httpapi.Options{RequestTimeout: 30 * time.Second})
	r.cat = catalog.New(w.maxClosures)
	r.idx = search.NewIndex(r.cat)
	for _, name := range w.graphNames() {
		g := w.graphs[name]
		var err error
		t.run("catalog.register", -1, -1, false, func() { err = r.cat.RegisterCtx(r.ctx, name, g) })
		if err != nil {
			return nil, nil, 0, err
		}
		var reach *closure.Reach
		t.run("closure.build", -1, -1, false, func() { reach = closure.Compute(g) })
		t.run("closure.index_build", -1, -1, false, func() {
			closure.BuildIndex(reach, closure.PolicyAuto, closure.DefaultDenseMaxBytes)
		})
	}
	if len(w.patches[0]) > 0 {
		dirC := filepath.Join(o.workDir, "trace-c")
		if err := os.MkdirAll(dirC, 0o755); err != nil {
			return nil, nil, 0, err
		}
		if r.wal, err = store.Open(dirC); err != nil {
			return nil, nil, 0, err
		}
		defer r.wal.Close()
	}

	// The head of the merged sequence: operation i is client i%clients'
	// slot i/clients, which preserves every graph's order.
	limit := min(w.traceOps, w.opsPerRound())
	var cursors [clients]int
	for i := 0; i < limit; i++ {
		c := i % clients
		sl := w.seq[c][i/clients]
		op := sl.read
		if sl.patch {
			op = w.patches[c][cursors[c]]
			cursors[c]++
		}
		r.kinds[i] = op.kind
		var err error
		switch op.kind {
		case opMatch:
			err = r.match(i, op)
		case opSearch:
			err = r.search(i, op)
		case opPatch:
			err = r.patch(i, op)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("op %d (%s %s): %w", i, op.method, op.path, err)
		}
	}

	return r.metrics(tcpP50), t.spans, r.checks, nil
}

// serve pushes one request through the real handler.
func (r *traceRig) serve(i int, o *op) (int, *httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	id := r.t.run("httpapi.serve", i, -1, true, func() { r.handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return id, rec, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body)
	}
	return id, rec, nil
}

// decode times the request decode the way the handler does it
// (DisallowUnknownFields), and within it the pattern graph's share.
func (r *traceRig) decode(i, parent int, o *op, dst any) error {
	var err error
	id := r.t.run("httpapi.decode", i, parent, false, func() {
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(dst)
	})
	var raw struct {
		Pattern json.RawMessage `json:"pattern"`
	}
	if err == nil && o.pattern != nil {
		if err = json.Unmarshal(o.body, &raw); err == nil {
			r.t.run("graph.decode", i, id, false, func() {
				var g graph.Graph
				err = g.UnmarshalJSON(raw.Pattern)
			})
		}
	}
	return err
}

// encode times re-encoding the handler's own answer.
func (r *traceRig) encode(i, parent int, body []byte, resp any) error {
	if err := json.Unmarshal(body, resp); err != nil {
		return err
	}
	var err error
	r.t.run("httpapi.encode", i, parent, false, func() { err = json.NewEncoder(io.Discard).Encode(resp) })
	return err
}

func compMax(ctx context.Context, in *core.Instance, algo string) (core.Mapping, error) {
	switch algo {
	case "maxcard":
		return in.CompMaxCardCtx(ctx)
	case "maxcard11":
		return in.CompMaxCard11Ctx(ctx)
	case "maxsim":
		return in.CompMaxSimCtx(ctx)
	case "maxsim11":
		return in.CompMaxSim11Ctx(ctx)
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// layers times what engine.execute does for one (pattern, graph) pair:
// resolve, matrix build, core match (the matrix scan is part of it),
// quality — then the same match on each reachability tier, and the
// certificate.
func (r *traceRig) layers(i, parent int, p *graph.Graph, name, algo string) (float64, error) {
	t, cat := r.t, r.eng.Catalog()
	var (
		g2    *graph.Graph
		reach *closure.Reach
		idx   closure.Index
		err   error
		mat   simmatrix.Matrix
	)
	t.run("catalog.resolve", i, parent, false, func() { g2, reach, idx, err = cat.GetWithIndexCtx(r.ctx, name, 0) })
	if err != nil {
		return 0, err
	}
	if r.w.content {
		t.run("simmatrix.content_build", i, parent, false, func() {
			_, sets, e := cat.ContentSets(name)
			if err = e; e == nil {
				mat = simmatrix.FromContentSets(p, sets, 0)
			}
		})
		if err != nil {
			return 0, err
		}
	} else {
		t.run("simmatrix.label_build", i, parent, false, func() { mat = simmatrix.NewLabelEquality(p, g2) })
	}
	match := func(span string, parent int, ix closure.Index) (core.Mapping, *core.Instance, int, error) {
		var (
			in    *core.Instance
			sigma core.Mapping
			err   error
		)
		id := t.run(span, i, parent, true, func() {
			in = core.NewInstance(p, g2, mat, r.w.xi)
			in.SetReach(reach)
			in.SetIndex(ix)
			sigma, err = compMax(r.ctx, in, algo)
		})
		return sigma, in, id, err
	}
	sigma, in, id, err := match("core.match", parent, idx)
	if err != nil {
		return 0, err
	}
	t.run("simmatrix.scan", i, id, false, func() { simmatrix.Candidates(p, g2, mat, r.w.xi) })
	var qc float64
	t.run("core.quality", i, parent, false, func() { qc = in.QualCard(sigma); in.QualSim(sigma) })
	if err := in.CheckMapping(sigma, strings.HasSuffix(algo, "11")); err != nil {
		r.checks++
	}

	// The other tier on the same request; spans without a parent, since
	// the server runs only one of them.
	if _, _, _, err := match("core.match_sparse", -1, closure.NewCompIndex(reach)); err != nil {
		return 0, err
	}
	d := r.dense[name]
	if d.of != reach {
		d = denseRows{of: reach}
		if closure.ProjectedRowsBytes(reach) <= denseLimit {
			d.rows = closure.NewRows(reach)
		}
		r.dense[name] = d
	}
	if d.rows != nil {
		if _, _, _, err := match("core.match_dense", -1, d.rows); err != nil {
			return 0, err
		}
	}
	return qc, nil
}

func (r *traceRig) match(i int, o *op) error {
	root, rec, err := r.serve(i, o)
	if err != nil {
		return err
	}
	var req httpapi.MatchRequest
	if err := r.decode(i, root, o, &req); err != nil {
		return err
	}
	var res engine.Result
	em := r.t.run("engine.match", i, root, true, func() {
		res = r.eng.Match(r.ctx, engine.Request{
			Pattern: req.Pattern, GraphName: req.Graph, Algo: engine.Algorithm(req.Algo), Xi: *req.Xi,
		})
	})
	if res.Err != nil {
		return res.Err
	}
	qc, err := r.layers(i, em, req.Pattern, req.Graph, req.Algo)
	if err != nil {
		return err
	}
	var resp httpapi.MatchResponse
	if err := r.encode(i, root, rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	// Three routes to one answer: handler, engine, bare layers.
	if resp.QualCard != res.QualCard || qc != res.QualCard {
		r.checks++
	}
	return nil
}

func (r *traceRig) search(i int, o *op) error {
	root, rec, err := r.serve(i, o)
	if err != nil {
		return err
	}
	var req httpapi.SearchRequest
	if err := r.decode(i, root, o, &req); err != nil {
		return err
	}
	var res engine.SearchResult
	es := r.t.run("engine.search", i, root, true, func() {
		res = r.eng.Search(r.ctx, engine.SearchRequest{
			Pattern: req.Pattern, Algo: engine.Algorithm(req.Algo), Xi: *req.Xi,
			Sim: engine.SimKind(req.Sim), K: req.K, MinResemblance: *req.MinResemblance,
		})
	})
	if res.Err != nil {
		return res.Err
	}
	var sum search.Summary
	r.t.run("search.summarize", i, es, false, func() { sum = search.Summarize(req.Pattern) })
	var cands []search.Candidate
	r.t.run("search.stage1", i, es, false, func() {
		cands, _ = r.idx.Candidates(sum, search.Policy{MinResemblance: *req.MinResemblance})
	})
	// Stage 2, one candidate after another. The engine fans these over
	// its workers, so their sum may exceed engine.search's wall time.
	for _, c := range cands {
		if _, err := r.layers(i, es, req.Pattern, c.Name, req.Algo); err != nil {
			return err
		}
	}
	var resp httpapi.SearchResponse
	return r.encode(i, root, rec.Body.Bytes(), &resp)
}

func (r *traceRig) patch(i int, o *op) error {
	root, rec, err := r.serve(i, o)
	if err != nil {
		return err
	}
	var req httpapi.PatchRequest
	if err := r.decode(i, root, o, &req); err != nil {
		return err
	}
	g0, reach0, err := r.cat.GetWithReach(o.graph, 0)
	if err != nil {
		return err
	}
	ca := r.t.run("catalog.apply", i, root, false, func() { _, err = r.cat.ApplyCtx(r.ctx, o.graph, o.patch) })
	if err != nil {
		return err
	}
	r.t.run("graph.apply_patch", i, ca, true, func() { _, err = g0.ApplyPatch(o.patch) })
	if err != nil {
		return err
	}
	r.t.run("closure.delta", i, ca, false, func() {
		reach0.ApplyEdges(g0, len(o.patch.AddNodes), o.patch.DelEdges, o.patch.AddEdges, 0)
	})
	start := time.Since(r.t.t0)
	_, tm, err := r.wal.AppendTimed(store.Op{Kind: store.OpPatch, Name: o.graph, Patch: o.patch})
	if err != nil {
		return err
	}
	end := start + tm.Total
	sa := r.t.add("store.append", i, root, start, end, 0, 0)
	r.t.add("store.fsync", i, sa, end-tm.Fsync, end, 0, 0)
	var resp httpapi.PatchResponse
	return r.encode(i, root, rec.Body.Bytes(), &resp)
}

// metrics folds the spans into the per-layer numbers.
func (r *traceRig) metrics(tcpP50 float64) []metric {
	t := r.t
	med := func(name, unit, spanName string) metric {
		ss := t.named(spanName, nil, 0)
		return overValues(name, unit, durations(ss), len(ss))
	}
	total := func(name, spanName string) metric {
		ss := t.named(spanName, nil, 0)
		return single(name, "ms", sum(durations(ss)), len(ss))
	}
	self := func(name, spanName string, kind opKind) metric {
		ss := t.named(spanName, r.kinds, kind)
		return overValues(name, "ms", t.selfTimes(ss), len(ss))
	}
	perOp := func(name, unit, spanName string, pick func(span) float64) metric {
		ss := t.named(spanName, nil, 0)
		vals := make([]float64, len(ss))
		for i, s := range ss {
			vals[i] = pick(s)
		}
		return single(name, unit, mean(vals), len(ss))
	}
	allocs := func(s span) float64 { return float64(s.Allocs) }
	allocKB := func(s span) float64 { return float64(s.AllocBytes) / 1024 }
	// A layer's share of matching: of engine.match for match operations;
	// for searches, of the serial stage-2 work (the engine spreads that
	// over its workers, so engine.search's wall time is no denominator).
	stage2Layers := map[string]bool{
		"catalog.resolve": true, "simmatrix.label_build": true, "simmatrix.content_build": true,
		"core.match": true, "core.quality": true,
	}
	whole, wholeN := 0.0, 0
	for _, s := range t.spans {
		switch {
		case s.Name == "engine.match":
			whole += s.ms()
			wholeN++
		case s.Op >= 0 && r.kinds[s.Op] == opSearch && stage2Layers[s.Name]:
			whole += s.ms()
			if s.Name == "core.match" {
				wholeN++
			}
		}
	}
	share := func(name string, spanNames ...string) metric {
		part := 0.0
		for _, n := range spanNames {
			part += sum(durations(t.named(n, nil, 0)))
		}
		if whole == 0 {
			return single(name, "ratio", 0, 0)
		}
		return single(name, "ratio", part/whole, wholeN)
	}

	reads := append(t.named("httpapi.serve", r.kinds, opMatch), t.named("httpapi.serve", r.kinds, opSearch)...)
	matchServes := t.named("httpapi.serve", r.kinds, opMatch)
	matchAllocs, matchKB := make([]float64, len(matchServes)), make([]float64, len(matchServes))
	for i, s := range matchServes {
		matchAllocs[i], matchKB[i] = allocs(s), allocKB(s)
	}
	searches := t.named("engine.search", nil, 0)
	stage2 := make([]float64, len(searches))
	for i, s := range searches {
		stage2[i] = s.ms()
		for _, c := range t.spans {
			if c.Parent == s.ID && (c.Name == "search.summarize" || c.Name == "search.stage1") {
				stage2[i] -= c.ms()
			}
		}
	}
	appends := t.named("store.append", nil, 0)
	walBytes := 0.0
	if r.wal != nil && len(appends) > 0 {
		walBytes = float64(r.wal.Stats().WALBytes) / float64(len(appends))
	}

	return []metric{
		med("httpapi.decode_ms", "ms", "httpapi.decode"),
		med("httpapi.encode_ms", "ms", "httpapi.encode"),
		self("httpapi.self_ms", "httpapi.serve", opMatch),
		single("httpapi.wire_ms", "ms", tcpP50-median(durations(reads)), len(reads)),
		single("httpapi.match_allocs_per_op", "count", mean(matchAllocs), len(matchServes)),
		single("httpapi.match_alloc_kb_per_op", "KB", mean(matchKB), len(matchServes)),
		med("graph.decode_ms", "ms", "graph.decode"),
		med("graph.apply_patch_ms", "ms", "graph.apply_patch"),
		perOp("graph.apply_patch_alloc_kb", "KB", "graph.apply_patch", allocKB),
		med("engine.match_ms", "ms", "engine.match"),
		self("engine.self_ms", "engine.match", opMatch),
		med("engine.search_ms", "ms", "engine.search"),
		perOp("engine.match_allocs_per_op", "count", "engine.match", allocs),
		med("catalog.resolve_ms", "ms", "catalog.resolve"),
		total("catalog.register_ms", "catalog.register"),
		med("catalog.apply_ms", "ms", "catalog.apply"),
		total("closure.build_ms", "closure.build"),
		total("closure.index_build_ms", "closure.index_build"),
		med("closure.delta_ms", "ms", "closure.delta"),
		med("simmatrix.label_build_ms", "ms", "simmatrix.label_build"),
		med("simmatrix.content_build_ms", "ms", "simmatrix.content_build"),
		med("simmatrix.scan_ms", "ms", "simmatrix.scan"),
		share("simmatrix.share_of_match", "simmatrix.label_build", "simmatrix.content_build", "simmatrix.scan"),
		med("core.match_ms", "ms", "core.match"),
		med("core.match_dense_ms", "ms", "core.match_dense"),
		med("core.match_sparse_ms", "ms", "core.match_sparse"),
		med("core.quality_ms", "ms", "core.quality"),
		share("core.share_of_match", "core.match"),
		perOp("core.allocs_per_match", "count", "core.match", allocs),
		med("search.summarize_ms", "ms", "search.summarize"),
		med("search.stage1_ms", "ms", "search.stage1"),
		overValues("search.stage2_ms", "ms", stage2, len(searches)),
		med("store.append_ms", "ms", "store.append"),
		med("store.fsync_ms", "ms", "store.fsync"),
		single("store.wal_bytes_per_write", "B", walBytes, len(appends)),
		med("store.replay_ms", "ms", "store.replay"),
	}
}
