package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/metrics"
)

// pathGraphN and cycleN mirror the engine overload-test fixtures: a
// k-cycle pattern against a directed path is unsatisfiable but forces
// the exact decider through a long, deterministic backtrack — the
// canonical slow request for deadline and saturation tests.
func pathGraphN(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("P")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.Finish()
	return g
}

func cycleN(k int) *graph.Graph {
	g := graph.New(k)
	for i := 0; i < k; i++ {
		g.AddNode("P")
	}
	for i := 0; i < k; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%k))
	}
	g.Finish()
	return g
}

func slowMatchBody() MatchRequest {
	xi := 0.5
	return MatchRequest{Pattern: cycleN(3), Graph: "path", Algo: "decide", Xi: &xi}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestMetricsCoversAllLayers exercises every subsystem once, scrapes
// /metrics, and round-trips the payload through the strict exposition
// parser — the acceptance gate that the output is valid Prometheus
// text AND that all five layers (http, engine pool, catalog, search,
// store) show up.
func TestMetricsCoversAllLayers(t *testing.T) {
	e, err := engine.Open(engine.Options{Workers: 2, StorePath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewWithOptions(e, Options{}))
	t.Cleanup(ts.Close)

	pattern, data := storeGraphs()
	register(t, ts, "fig1", data)
	if resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxcard"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: pattern}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/admin/snapshot", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, body)
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	fams, err := metrics.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"phomd_http_requests_total",     // transport
		"phomd_http_request_seconds",    //
		"phomd_http_in_flight",          //
		"phomd_engine_executed_total",   // worker pool
		"phomd_engine_task_run_seconds", //
		"phomd_engine_queue_depth",      //
		"phomd_catalog_graphs",          // catalog cache
		"phomd_catalog_closure_hits_total",
		"phomd_catalog_resident_bytes",
		"phomd_catalog_candidate_index_bytes",
		"phomd_search_requests_total", // search
		"phomd_search_prune_ratio",    //
		"phomd_search_index_bytes",    //
		"phomd_store_appended_total",  // store
		"phomd_store_fsync_seconds",   //
		"phomd_store_snapshot_seconds",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	// The match above must be visible in the executed counter and the
	// http counter for the match route.
	if f := fams["phomd_engine_executed_total"]; len(f.Samples) == 0 || f.Samples[0].Value < 1 {
		t.Error("phomd_engine_executed_total did not count the match")
	}
	found := false
	for _, s := range fams["phomd_http_requests_total"].Samples {
		if s.Labels["route"] == "POST /v1/match" && s.Labels["code"] == "200" {
			found = true
			if s.Value < 1 {
				t.Error("match route counted zero requests")
			}
		}
	}
	if !found {
		t.Error("no phomd_http_requests_total sample for POST /v1/match code=200")
	}
	// Store latency histograms hold one observation per WAL append (the
	// register above) and per snapshot: cmd/bench divides the fsync
	// count by acknowledged writes.
	appended := fams["phomd_store_appended_total"].Samples[0].Value
	snapshots := fams["phomd_store_snapshots_total"].Samples[0].Value
	for name, want := range map[string]float64{
		"phomd_store_append_seconds":   appended,
		"phomd_store_fsync_seconds":    appended,
		"phomd_store_snapshot_seconds": snapshots,
	} {
		if got := histCount(fams[name]); want == 0 || got != want {
			t.Errorf("%s has %v observations, want %v", name, got, want)
		}
	}
}

func histCount(f *metrics.Family) float64 {
	for _, s := range f.Samples {
		if strings.HasSuffix(s.Name, "_count") {
			return s.Value
		}
	}
	return 0
}

// TestMetricNamesLint pins the naming policy: every family the process
// registers matches ^phomd_[a-z0-9_]+$.
func TestMetricNamesLint(t *testing.T) {
	e, err := engine.Open(engine.Options{Workers: 1, StorePath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewWithOptions(e, Options{}))
	t.Cleanup(ts.Close)

	re := regexp.MustCompile(`^phomd_[a-z0-9_]+$`)
	names := e.Metrics().Names()
	if len(names) == 0 {
		t.Fatal("no registered metrics")
	}
	for _, n := range names {
		if !re.MatchString(n) {
			t.Errorf("metric %q violates the phomd_ naming policy", n)
		}
	}
}

func TestReadinessSplitsFromLiveness(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	var ready atomic.Bool
	ts := httptest.NewServer(NewWithOptions(e, Options{Ready: ready.Load}))
	t.Cleanup(ts.Close)

	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while booting: %d, want 200 (liveness)", resp.StatusCode)
	}
	resp, _ = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while booting: %d, want 503", resp.StatusCode)
	}
	ready.Store(true)
	resp, _ = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz when ready: %d, want 200", resp.StatusCode)
	}
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	ts, _ := newTestServer(t)
	// Absent: one is generated.
	resp, _ := getBody(t, ts.URL+"/healthz")
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID generated")
	}
	// Present: echoed verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "test-rid-42")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Request-ID"); got != "test-rid-42" {
		t.Fatalf("echoed id %q, want test-rid-42", got)
	}
}

func TestRequestIDThreadedIntoEngineErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	body, _ := bodyWithHeader(t, ts.URL+"/v1/match",
		MatchRequest{Pattern: cycleN(2), Graph: "no-such-graph", Algo: "maxcard"},
		"X-Request-ID", "rid-err-7")
	if !strings.Contains(string(body), "[req rid-err-7]") {
		t.Fatalf("engine error lacks request id: %s", body)
	}
}

func bodyWithHeader(t *testing.T, url string, v any, hk, hv string) ([]byte, *http.Response) {
	t.Helper()
	var buf bytes.Buffer
	if err := jsonEncode(&buf, v); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hk, hv)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), resp
}

func TestAccessLogLine(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	var mu sync.Mutex
	var buf bytes.Buffer
	lg := log.New(syncWriter{&mu, &buf}, "", 0)
	ts := httptest.NewServer(NewWithOptions(e, Options{AccessLog: lg}))
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-ID", "rid-log-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The shell writes the line as the handler returns, which can be
	// after the client already holds the response headers.
	var line string
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		line = buf.String()
		mu.Unlock()
		return strings.Contains(line, "req_id=rid-log-1")
	})
	for _, want := range []string{"req_id=rid-log-1", "method=GET", "path=/v1/stats", "status=200", "bytes=", "dur="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q lacks %q", line, want)
		}
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRequestTimeout504 pins deadline propagation end to end: the
// transport deadline reaches the matcher recursion, which aborts and
// surfaces as a 504 long before the uncancelled decide would finish.
func TestRequestTimeout504(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewWithOptions(e, Options{RequestTimeout: 30 * time.Millisecond}))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(1500))

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/match", slowMatchBody())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed-out request took %v to answer", d)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("504 body %s does not mention the deadline", body)
	}
}

// TestEngineShedPropagatesAs429 drives the engine's admission control
// into shedding and checks the HTTP mapping: 429 + Retry-After.
func TestEngineShedPropagatesAs429(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1, MaxPending: 2})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(200))

	const n = 8
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/match", slowMatchBody())
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	var shed, ok int
	for i, c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("shed response without Retry-After")
			}
		case http.StatusOK:
			ok++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Error("no request shed with MaxPending=2 under 8 concurrent slow matches")
	}
	if ok == 0 {
		t.Error("every request shed; admitted work should complete")
	}
}

func TestBatchSizeCap(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	register(t, ts, "g", pathGraphN(4))

	xi := 0.5
	items := make([]MatchRequest, MaxBatch+1)
	for i := range items {
		items[i] = MatchRequest{Pattern: pathGraphN(2), Graph: "g", Algo: "maxcard", Xi: &xi}
	}
	resp, body := postJSON(t, ts.URL+"/v1/match/batch", BatchRequest{Requests: items})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch over cap: %d %.200s, want 400", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/match/batch", BatchRequest{Requests: items[:MaxBatch]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch at cap: %d %.200s, want 200", resp.StatusCode, body)
	}
}

// TestBatchServedUnderDefaultAdmission: an idle server with the default
// admission bound (queue + workers) serves a batch of more items than
// the bound whole: no item is shed. A malformed item still gets its own
// error.
func TestBatchServedUnderDefaultAdmission(t *testing.T) {
	e := engine.New(engine.Options{Workers: 2, MaxPending: -1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(80))

	reqs := make([]MatchRequest, 3*e.Stats().MaxPending)
	for i := range reqs {
		reqs[i] = slowMatchBody()
	}
	reqs[1].Algo = "bogus"
	resp, body := postJSON(t, ts.URL+"/v1/match/batch", BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch of %d: status %d (%s), want 200", len(reqs), resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if (r.Error != "") != (i == 1) || strings.Contains(r.Error, "overloaded") {
			t.Errorf("item %d: error %q", i, r.Error)
		}
	}
}

// TestShedBatchIs429: a batch the engine sheds is answered 429 with
// Retry-After, not 200 with per-item errors. A direct engine call holds
// the single admission slot, so the batch is shed deterministically.
func TestShedBatchIs429(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1, MaxPending: 1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(1000))

	blockerCtx, cancelBlocker := context.WithCancel(context.Background())
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		e.Match(blockerCtx, engine.Request{Pattern: cycleN(3), GraphName: "path", Algo: engine.Decide, Xi: 0.25})
	}()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 1 })

	bogus := slowMatchBody()
	bogus.Algo = "bogus"
	resp, body := postJSON(t, ts.URL+"/v1/match/batch", BatchRequest{Requests: []MatchRequest{slowMatchBody(), bogus, slowMatchBody()}})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("shed batch: status %d, Retry-After %q (%s); want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	cancelBlocker()
	<-blockerDone
}

// TestExpiredDeadlineNeverReachesPool pins the preflight: a request
// whose transport deadline already passed is answered 504 without the
// engine executing anything.
func TestExpiredDeadlineNeverReachesPool(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewWithOptions(e, Options{RequestTimeout: time.Nanosecond}))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(50))

	before := e.Stats().Executed
	resp, _ := postJSON(t, ts.URL+"/v1/match", slowMatchBody())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := e.Stats().Executed; got != before {
		t.Fatalf("executed grew %d→%d for an expired-deadline request", before, got)
	}
}

func jsonEncode(w *bytes.Buffer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
