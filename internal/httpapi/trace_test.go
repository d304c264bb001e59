package httpapi

// Tests for the tracing surface: ?explain=1 determinism, flight
// recorder lookup by X-Request-ID, traceparent continuation, trace ids
// in error bodies, and span-tree well-formedness under a concurrent
// match/search/patch storm (run with -race in CI).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/trace"
)

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// stageNames pulls the ordered stage-name sequence out of an explain
// payload.
func stageNames(stages []trace.Stage) []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	return names
}

// checkSpanTree asserts the structural invariants every recorded trace
// must satisfy: sequential span ids from 1, the root first and
// parentless, parents preceding children, and every span's interval
// inside the root's.
func checkSpanTree(t *testing.T, td TraceDetailResponse) {
	t.Helper()
	if len(td.Spans) == 0 {
		t.Errorf("trace %s has no spans", td.ID)
		return
	}
	seen := map[uint64]bool{}
	for i, sp := range td.Spans {
		if sp.ID != uint64(i+1) {
			t.Errorf("trace %s span %d has id %d, want sequential %d", td.ID, i, sp.ID, i+1)
		}
		if i == 0 {
			if sp.Parent != 0 {
				t.Errorf("trace %s root span has parent %d", td.ID, sp.Parent)
			}
		} else {
			if sp.Parent >= sp.ID {
				t.Errorf("trace %s span %d parented to later span %d", td.ID, sp.ID, sp.Parent)
			}
			if !seen[sp.Parent] {
				t.Errorf("trace %s span %d has unknown parent %d", td.ID, sp.ID, sp.Parent)
			}
		}
		if sp.StartUS < 0 || sp.DurationUS < 0 {
			t.Errorf("trace %s span %d has negative offset/duration (%d, %d)", td.ID, sp.ID, sp.StartUS, sp.DurationUS)
		}
		if sp.StartUS+sp.DurationUS > td.DurationUS {
			t.Errorf("trace %s span %d ends at %dµs, past the root's %dµs",
				td.ID, sp.ID, sp.StartUS+sp.DurationUS, td.DurationUS)
		}
		seen[sp.ID] = true
	}
}

// TestExplainDeterministic pins the EXPLAIN contract: the same query
// shape yields the same ordered stage set on every run — cold cache or
// warm — so explain output is diffable across requests.
func TestExplainDeterministic(t *testing.T) {
	ts, _ := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "fig1", data)

	match := func() ([]string, string) {
		resp, body := postJSON(t, ts.URL+"/v1/match?explain=1",
			MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxcard"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match: %d %s", resp.StatusCode, body)
		}
		var out MatchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !hex32.MatchString(out.TraceID) {
			t.Fatalf("explain trace_id %q is not a 32-hex trace id", out.TraceID)
		}
		if len(out.Explain) == 0 {
			t.Fatalf("explain=1 returned no stages: %s", body)
		}
		return stageNames(out.Explain), out.TraceID
	}
	cold, id1 := match() // first request: closure built on the fly
	warm, id2 := match() // second: fully cached
	if strings.Join(cold, ",") != strings.Join(warm, ",") {
		t.Errorf("explain stages differ cold vs warm:\n  cold: %v\n  warm: %v", cold, warm)
	}
	if id1 == id2 {
		t.Errorf("two requests share trace id %s", id1)
	}
	got := strings.Join(cold, ",")
	for _, want := range []string{"engine.match", "engine.queue", "catalog.resolve", "core.maxcard"} {
		if !strings.Contains(got, want) {
			t.Errorf("match explain %v lacks stage %s", cold, want)
		}
	}

	search := func() ([]string, map[string]any) {
		resp, body := postJSON(t, ts.URL+"/v1/search?explain=1", SearchRequest{Pattern: pattern})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search: %d %s", resp.StatusCode, body)
		}
		var out SearchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !hex32.MatchString(out.TraceID) {
			t.Fatalf("search explain trace_id %q", out.TraceID)
		}
		for _, st := range out.Explain {
			if st.Name == "search.stage1" {
				return stageNames(out.Explain), st.Attrs
			}
		}
		return stageNames(out.Explain), nil
	}
	s1, a1 := search()
	s2, a2 := search()
	// The first search installs the one graph's postings, the second
	// finds them current.
	if a1["installed"] != 1.0 || a2["installed"] != 0.0 || a1["dropped"] != 0.0 || a2["dropped"] != 0.0 {
		t.Errorf("search.stage1 attrs: first %v, second %v; want installed 1 then 0, dropped 0", a1, a2)
	}
	if strings.Join(s1, ",") != strings.Join(s2, ",") {
		t.Errorf("search explain stages differ: %v vs %v", s1, s2)
	}
	// Exactly the search's own stages: stage 2's fan-out tasks record no
	// per-item spans, not even under the search's context.
	if got, want := strings.Join(s1, ","), "engine.search,search.stage1,search.stage2"; got != want {
		t.Errorf("search explain stages = %s, want %s", got, want)
	}

	// Without ?explain=1 the response must carry neither field.
	resp, body := postJSON(t, ts.URL+"/v1/match",
		MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxcard"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain match: %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte(`"explain"`)) || bytes.Contains(body, []byte(`"trace_id"`)) {
		t.Errorf("non-explain response leaks trace fields: %s", body)
	}
}

// TestDebugTraceLookupByRequestID is the acceptance path: make a
// request with an X-Request-ID, then fetch its span tree from the
// flight recorder by that same id.
func TestDebugTraceLookupByRequestID(t *testing.T) {
	ts, _ := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "fig1", data)

	body, resp := bodyWithHeader(t, ts.URL+"/v1/match",
		MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxsim"},
		"X-Request-ID", "rid-flight-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "rid-flight-1" {
		t.Errorf("request id not echoed: %q", got)
	}
	tid, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}

	// The recorder holds the trace once the observe shell seals it,
	// which races the response reaching the client — poll briefly.
	var detail TraceDetailResponse
	waitFor(t, 5*time.Second, func() bool {
		r, b := getBody(t, ts.URL+"/debug/traces/rid-flight-1")
		return r.StatusCode == http.StatusOK && json.Unmarshal(b, &detail) == nil
	})
	if detail.RequestID != "rid-flight-1" {
		t.Errorf("detail request_id %q", detail.RequestID)
	}
	if detail.Route != "POST /v1/match" {
		t.Errorf("detail route %q", detail.Route)
	}
	if detail.ID != tid.String() {
		t.Errorf("recorder trace id %s, response header said %s", detail.ID, tid)
	}
	checkSpanTree(t, detail)

	// The same trace must resolve by trace id too, and appear in the
	// list view.
	r, b := getBody(t, ts.URL+"/debug/traces/"+detail.ID)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("lookup by trace id: %d %s", r.StatusCode, b)
	}
	var list TraceListResponse
	r, b = getBody(t, ts.URL+"/debug/traces")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", r.StatusCode)
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.ID == detail.ID {
			found = true
			if tr.RequestID != "rid-flight-1" {
				t.Errorf("summary request_id %q", tr.RequestID)
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from the list view", detail.ID)
	}

	// Unknown keys 404.
	if r, _ := getBody(t, ts.URL+"/debug/traces/no-such-trace"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace lookup: %d, want 404", r.StatusCode)
	}
}

// TestTraceparentContinuation pins W3C propagation: a request arriving
// with a traceparent keeps that trace id and records the caller's span
// as its remote parent.
func TestTraceparentContinuation(t *testing.T) {
	ts, _ := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "fig1", data)

	const wantID = "0123456789abcdef0123456789abcdef"
	incoming := "00-" + wantID + "-00000000000000ab-01"
	body, resp := bodyWithHeader(t, ts.URL+"/v1/match",
		MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxcard"},
		"traceparent", incoming)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d %s", resp.StatusCode, body)
	}
	tid, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || tid.String() != wantID {
		t.Fatalf("response traceparent %q does not continue trace %s",
			resp.Header.Get("traceparent"), wantID)
	}

	var detail TraceDetailResponse
	waitFor(t, 5*time.Second, func() bool {
		r, b := getBody(t, ts.URL+"/debug/traces/"+wantID)
		return r.StatusCode == http.StatusOK && json.Unmarshal(b, &detail) == nil
	})
	if !detail.Remote {
		t.Error("continued trace not marked remote")
	}
	if detail.ParentSpan != 0xab {
		t.Errorf("remote parent span %d, want %d", detail.ParentSpan, 0xab)
	}
	checkSpanTree(t, detail)
}

// TestTraceIDIn504Body: a deadline-exceeded request reports the trace
// id in its error body, and the trace is retrievable afterwards.
func TestTraceIDIn504Body(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewWithOptions(e, Options{RequestTimeout: 30 * time.Millisecond}))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(1500))

	resp, body := postJSON(t, ts.URL+"/v1/match", slowMatchBody())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	var e504 struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &e504); err != nil {
		t.Fatal(err)
	}
	if !hex32.MatchString(e504.TraceID) {
		t.Fatalf("504 body trace_id %q is not a trace id: %s", e504.TraceID, body)
	}
	var detail TraceDetailResponse
	waitFor(t, 5*time.Second, func() bool {
		r, b := getBody(t, ts.URL+"/debug/traces/"+e504.TraceID)
		return r.StatusCode == http.StatusOK && json.Unmarshal(b, &detail) == nil
	})
	checkSpanTree(t, detail)
}

// TestTraceIDIn429Body: a request shed by the engine's admission
// control still carries a trace id, so even shed load is attributable.
// A direct (cancellable) engine call holds the single admission slot,
// so the probe is shed deterministically.
func TestTraceIDIn429Body(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1, MaxPending: 1})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	register(t, ts, "path", pathGraphN(1000))

	blockerCtx, cancelBlocker := context.WithCancel(context.Background())
	defer cancelBlocker()
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		e.Match(blockerCtx, engine.Request{Pattern: cycleN(3), GraphName: "path", Algo: engine.Decide, Xi: 0.25})
	}()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Pending == 1 })

	xi := 0.75
	resp, body := postJSON(t, ts.URL+"/v1/match",
		MatchRequest{Pattern: pathGraphN(2), Graph: "path", Algo: "maxcard", Xi: &xi})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var e429 struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &e429); err != nil {
		t.Fatal(err)
	}
	if !hex32.MatchString(e429.TraceID) {
		t.Errorf("429 body trace_id %q is not a trace id: %s", e429.TraceID, body)
	}

	cancelBlocker()
	<-blockerDone
}

// TestTraceStormSpanTreesWellFormed hammers the server with concurrent
// matches (half with ?explain=1), searches, live patches, and flight
// recorder reads, then verifies every recorded span tree. Run under
// -race in CI, this is the data-race gate for the tracing layer.
func TestTraceStormSpanTreesWellFormed(t *testing.T) {
	e := engine.New(engine.Options{Workers: 4})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	pattern, data := storeGraphs()
	register(t, ts, "fig1", data)

	post := func(url string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	patch := func(v PatchRequest) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/graphs/fig1", bytes.NewReader(b))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	read := func(path string) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	const clients, iters = 6, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var err error
				switch (c + i) % 4 {
				case 0:
					err = post(ts.URL+"/v1/match?explain=1",
						MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxcard"})
				case 1:
					err = post(ts.URL+"/v1/match",
						MatchRequest{Pattern: pattern, Graph: "fig1", Algo: "maxsim"})
				case 2:
					err = post(ts.URL+"/v1/search?explain=1", SearchRequest{Pattern: pattern})
				case 3:
					err = patch(PatchRequest{
						AddNodes:   []PatchNode{{Label: fmt.Sprintf("S%d", c)}},
						SetContent: []ContentPatch{{Node: 0, Content: fmt.Sprintf("v%d-%d", c, i)}},
					})
					if err == nil {
						err = read("/debug/traces?limit=8")
					}
				}
				if err != nil {
					t.Errorf("storm client %d iter %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	var list TraceListResponse
	r, b := getBody(t, ts.URL+"/debug/traces")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", r.StatusCode)
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if list.Completed == 0 || len(list.Traces) == 0 {
		t.Fatalf("storm recorded no traces (completed=%d)", list.Completed)
	}
	checked := 0
	for _, sum := range list.Traces {
		r, b := getBody(t, ts.URL+"/debug/traces/"+sum.ID)
		if r.StatusCode != http.StatusOK {
			// Evicted between list and detail fetch under churn — fine.
			continue
		}
		var detail TraceDetailResponse
		if err := json.Unmarshal(b, &detail); err != nil {
			t.Fatal(err)
		}
		checkSpanTree(t, detail)
		checked++
	}
	if checked == 0 {
		t.Fatal("no trace details verifiable after the storm")
	}
}
