package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"graphmatch/internal/core"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	e := engine.New(engine.Options{Workers: 4})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	return ts, e
}

// storeGraphs is the paper's Figure 1 instance in wire form.
func storeGraphs() (pattern, data *graph.Graph) {
	pattern = graph.FromEdgeList(
		[]string{"A", "books", "audio", "textbooks", "abooks", "albums"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 4}, {2, 5}},
	)
	data = graph.FromEdgeList(
		[]string{"A", "books", "sports", "audio", "categories", "textbooks",
			"school", "arts", "abooks", "booksets", "DVDs", "albums"},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 9}, {1, 5}, {4, 6},
			{4, 7}, {3, 8}, {3, 10}, {3, 11}, {5, 6}},
	)
	return pattern, data
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

func register(t *testing.T, ts *httptest.Server, name string, g *graph.Graph) {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/graphs", RegisterRequest{Name: name, Graph: g})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %q: status %d, body %s", name, resp.StatusCode, body)
	}
}

func TestRegisterAndList(t *testing.T) {
	ts, _ := newTestServer(t)
	_, data := storeGraphs()
	register(t, ts, "store", data)

	// Duplicate → 409.
	resp, _ := postJSON(t, ts.URL+"/v1/graphs", RegisterRequest{Name: "store", Graph: data})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", resp.StatusCode)
	}
	// Missing pieces → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs", RegisterRequest{Name: "", Graph: data})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs", RegisterRequest{Name: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing graph: status %d, want 400", resp.StatusCode)
	}

	listResp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var listed map[string][]string
	if err := json.NewDecoder(listResp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if got := listed["graphs"]; len(got) != 1 || got[0] != "store" {
		t.Fatalf("graphs = %v", got)
	}
}

func TestMatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "store", data)

	xi := 0.9
	resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{
		Pattern: pattern, Graph: "store", Algo: "maxcard", Xi: &xi,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}

	// The wire result must equal a direct in-process run.
	in := core.NewInstance(pattern, data, simmatrix.NewLabelEquality(pattern, data), xi)
	want, _ := in.CompMaxCardCtx(context.Background())
	if mr.Matched != len(want) || mr.PatternNodes != pattern.NumNodes() {
		t.Fatalf("matched %d/%d, want %d/%d", mr.Matched, mr.PatternNodes, len(want), pattern.NumNodes())
	}
	if mr.QualCard != in.QualCard(want) {
		t.Fatalf("qual_card %v, want %v", mr.QualCard, in.QualCard(want))
	}
	for _, pair := range mr.Mapping {
		if want[graph.NodeID(pair[0])] != graph.NodeID(pair[1]) {
			t.Fatalf("wire mapping %v disagrees with direct run %v", mr.Mapping, want)
		}
	}

	// Unknown graph → 404; bad algorithm → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/match", MatchRequest{Pattern: pattern, Graph: "nope", Algo: "maxcard"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/match", MatchRequest{Pattern: pattern, Graph: "store", Algo: "subiso"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algo: status %d, want 400", resp.StatusCode)
	}
	badXi := 1.5
	resp, _ = postJSON(t, ts.URL+"/v1/match", MatchRequest{Pattern: pattern, Graph: "store", Algo: "maxcard", Xi: &badXi})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("xi out of range: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/match", MatchRequest{Pattern: pattern, Graph: "store", Algo: "maxcard", Sim: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sim kind: status %d, want 400", resp.StatusCode)
	}
}

// TestEndToEndConcurrentBatches is the PR's acceptance scenario over
// the real HTTP stack: one registered graph, several concurrent batch
// requests, closure-cache hits, and per-algorithm agreement with
// direct core runs.
func TestEndToEndConcurrentBatches(t *testing.T) {
	ts, e := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "store", data)

	xi := 0.9
	algos := []string{"maxcard", "maxcard11", "maxsim", "maxsim11", "decide", "simulation"}
	batch := BatchRequest{}
	for _, a := range algos {
		batch.Requests = append(batch.Requests, MatchRequest{
			Pattern: pattern, Graph: "store", Algo: a, Xi: &xi,
		})
	}

	const clients = 4
	var wg sync.WaitGroup
	responses := make([]BatchResponse, clients)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, err := json.Marshal(batch)
			if err != nil {
				errCh <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/match/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			errCh <- json.NewDecoder(resp.Body).Decode(&responses[c])
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every client got per-algorithm results identical to direct runs.
	in := core.NewInstance(pattern, data, simmatrix.NewLabelEquality(pattern, data), xi)
	direct := map[string]core.Mapping{}
	for algo, run := range map[string]func(context.Context) (core.Mapping, error){
		"maxcard": in.CompMaxCardCtx, "maxcard11": in.CompMaxCard11Ctx,
		"maxsim": in.CompMaxSimCtx, "maxsim11": in.CompMaxSim11Ctx,
	} {
		direct[algo], _ = run(context.Background())
	}
	for c, br := range responses {
		if len(br.Results) != len(algos) {
			t.Fatalf("client %d: %d results, want %d", c, len(br.Results), len(algos))
		}
		for _, res := range br.Results {
			if res.Error != "" {
				t.Fatalf("client %d %s: %s", c, res.Algo, res.Error)
			}
			want, ok := direct[res.Algo]
			if !ok {
				continue // decide/simulation verdicts checked below
			}
			if res.Matched != len(want) {
				t.Errorf("client %d %s: matched %d, direct %d", c, res.Algo, res.Matched, len(want))
			}
			for _, pair := range res.Mapping {
				if want[graph.NodeID(pair[0])] != graph.NodeID(pair[1]) {
					t.Errorf("client %d %s: pair %v disagrees with direct run", c, res.Algo, pair)
				}
			}
		}
		_, holds, _ := in.DecideCtx(context.Background())
		for _, res := range br.Results {
			if res.Algo == "decide" && res.Holds != holds {
				t.Errorf("client %d decide: holds %v, direct %v", c, res.Holds, holds)
			}
		}
	}

	// The closure was computed exactly once (at registration) and every
	// closure-consuming request hit the shared cache.
	var stats StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Catalog.Misses != 1 {
		t.Errorf("closure built %d times, want exactly 1", stats.Catalog.Misses)
	}
	if stats.Catalog.Hits == 0 {
		t.Errorf("closure-cache hits = 0, want > 0; stats %+v", stats.Catalog)
	}
	if stats.Engine.Requests < uint64(clients*len(algos)) {
		t.Errorf("engine saw %d requests, want ≥ %d", stats.Engine.Requests, clients*len(algos))
	}
	t.Logf("engine stats: %+v", stats.Engine)
	t.Logf("catalog stats: %+v (hit rate %.0f%%)", stats.Catalog.Stats, stats.Catalog.HitRate*100)
	_ = e
}

func TestHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.Workers < 1 {
		t.Fatalf("stats report %d workers", stats.Engine.Workers)
	}
}

func TestBadJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v1/match/batch", "application/json", bytes.NewReader([]byte(`{"requests": []}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp2.StatusCode)
	}
}

func TestRemoveGraph(t *testing.T) {
	ts, eng := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "store", data)

	// Unknown name → 404.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/missing", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: status %d, want 404", resp.StatusCode)
	}

	// Existing name → 200 with an acknowledgement, and the graph is gone.
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/store", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack RemoveResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ack.Removed || ack.Name != "store" {
		t.Fatalf("delete: status %d, ack %+v", resp.StatusCode, ack)
	}
	if got := eng.Catalog().Len(); got != 0 {
		t.Fatalf("catalog still holds %d graphs after delete", got)
	}

	// A match against the removed graph → 404.
	resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{
		Pattern: pattern, Graph: "store", Algo: "maxcard",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("match after delete: status %d (%s), want 404", resp.StatusCode, body)
	}

	// The name is free for re-registration.
	register(t, ts, "store", data)
}

// TestStatsReportTier: after a match, /v1/stats reports the one
// reachability tier's residency — the closure, which the matcher index
// wraps at no cost of its own.
func TestStatsReportTier(t *testing.T) {
	ts, _ := newTestServer(t)
	_, data := storeGraphs()
	register(t, ts, "store", data)
	pattern, _ := storeGraphs()
	if resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{
		Pattern: pattern, Graph: "store", Algo: "maxcard",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: status %d (%s)", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Catalog.ResidentClosures != 1 || st.Catalog.ResidentBytes <= 0 || st.Catalog.Misses != 1 {
		t.Fatalf("stats report %d resident closures in %d B after %d builds, want 1, > 0 and 1",
			st.Catalog.ResidentClosures, st.Catalog.ResidentBytes, st.Catalog.Misses)
	}
}

// TestListGraphsSorted is the listing-determinism regression: names
// come back sorted regardless of registration order.
func TestListGraphsSorted(t *testing.T) {
	ts, _ := newTestServer(t)
	_, data := storeGraphs()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		register(t, ts, name, data)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	got := list["graphs"]
	if len(got) != len(want) {
		t.Fatalf("graphs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graphs = %v, want %v (sorted)", got, want)
		}
	}
}

// TestGraphDetail exercises GET /v1/graphs/{name}: size, degree stats
// and resident-closure accounting for a registered graph, 404 for an
// unknown one.
func TestGraphDetail(t *testing.T) {
	ts, _ := newTestServer(t)
	_, data := storeGraphs()
	register(t, ts, "store", data)

	resp, err := http.Get(ts.URL + "/v1/graphs/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail status %d", resp.StatusCode)
	}
	var detail GraphDetailResponse
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail.Name != "store" || detail.Nodes != data.NumNodes() || detail.Edges != data.NumEdges() {
		t.Fatalf("detail = %+v", detail)
	}
	if detail.ResidentClosures != 1 || detail.ClosureBytes <= 0 {
		t.Fatalf("closure accounting: %+v", detail)
	}
	if detail.MaxDeg <= 0 || detail.AvgDeg <= 0 {
		t.Fatalf("degree stats: %+v", detail)
	}

	missing, err := http.Get(ts.URL + "/v1/graphs/missing")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing detail status %d, want 404", missing.StatusCode)
	}
}

// TestGraphDetailOneVersion checks that GET /v1/graphs/{name} reports
// one graph version while a patcher adds and deletes an edge: the
// degree stats must agree with the node and edge counts beside them
// (every edge adds two to the degree sum).
func TestGraphDetailOneVersion(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	_, data := storeGraphs()
	ctx := context.Background()
	if err := e.Register(ctx, "g", data); err != nil {
		t.Fatal(err)
	}
	h := New(e)
	done := make(chan struct{})
	patched := make(chan error, 1)
	go func() {
		edge := [][2]graph.NodeID{{2, 6}}
		for i := 0; ; i++ {
			select {
			case <-done:
				patched <- nil
				return
			default:
			}
			p := &graph.Patch{AddEdges: edge}
			if i%2 == 1 {
				p = &graph.Patch{DelEdges: edge}
			}
			if _, err := e.ApplyPatch(ctx, "g", p); err != nil {
				patched <- err
				return
			}
		}
	}()
	defer func() {
		close(done)
		if err := <-patched; err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 2000; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs/g", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var d GraphDetailResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		if diff := d.AvgDeg*float64(d.Nodes) - 2*float64(d.Edges); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("GET %d mixes two versions: avg_deg %v over %d nodes, but %d edges", i, d.AvgDeg, d.Nodes, d.Edges)
		}
	}
}

// TestSearchEndpoint drives POST /v1/search over a small catalog: the
// self-graph ranks first, ranks are 1-based and deterministic, and the
// stats report the catalog size.
func TestSearchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "store", data)
	// A second graph with none of the pattern's labels ranks below.
	other := graph.FromEdgeList([]string{"x", "y", "z"}, [][2]int{{0, 1}, {1, 2}})
	register(t, ts, "other", other)

	resp, body := postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pattern: pattern, Algo: "maxcard", K: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d, body %s", resp.StatusCode, body)
	}
	var out SearchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algo != "maxcard" || out.K != 2 || out.PatternNodes != pattern.NumNodes() {
		t.Fatalf("response header: %+v", out)
	}
	if len(out.Hits) != 2 || out.Hits[0].Graph != "store" || out.Hits[0].Rank != 1 {
		t.Fatalf("hits = %+v", out.Hits)
	}
	if out.Hits[0].QualCard <= out.Hits[1].QualCard || out.Hits[0].Score != out.Hits[0].QualCard {
		t.Fatalf("ranking metric: %+v", out.Hits)
	}
	if out.Stats.Graphs != 2 || out.Stats.Matched != 2 {
		t.Fatalf("stats = %+v", out.Stats)
	}

	// Re-running returns the identical ranking.
	_, body2 := postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pattern: pattern, Algo: "maxcard", K: 2,
	})
	var out2 SearchResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if len(out2.Hits) != len(out.Hits) || out2.Hits[0].Graph != out.Hits[0].Graph || out2.Hits[1].Graph != out.Hits[1].Graph {
		t.Fatalf("ranking changed across runs: %+v then %+v", out.Hits, out2.Hits)
	}

	// min_resemblance prunes the unrelated graph; explicit 0 keeps it.
	thr := 0.5
	_, body3 := postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pattern: pattern, Algo: "maxcard", K: 2, MinResemblance: &thr,
	})
	var out3 SearchResponse
	if err := json.Unmarshal(body3, &out3); err != nil {
		t.Fatal(err)
	}
	if out3.Stats.Pruned != 1 || len(out3.Hits) != 1 || out3.Hits[0].Graph != "store" {
		t.Fatalf("pruned search: hits %+v stats %+v", out3.Hits, out3.Stats)
	}
	zero := 0.0
	_, body4 := postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pattern: pattern, Algo: "maxcard", K: 2, MinResemblance: &zero,
	})
	var out4 SearchResponse
	if err := json.Unmarshal(body4, &out4); err != nil {
		t.Fatal(err)
	}
	if out4.Stats.Pruned != 0 || len(out4.Hits) != 2 {
		t.Fatalf("explicit-zero search: hits %+v stats %+v", out4.Hits, out4.Stats)
	}

	// Brute force matches everything and agrees on the winner.
	_, body5 := postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pattern: pattern, Algo: "maxcard", K: 2, NoPrefilter: true,
	})
	var out5 SearchResponse
	if err := json.Unmarshal(body5, &out5); err != nil {
		t.Fatal(err)
	}
	if out5.Stats.Matched != 2 || out5.Hits[0].Graph != "store" {
		t.Fatalf("brute search: %+v", out5)
	}
}

// TestSearchEndpointValidation pins the 400s.
func TestSearchEndpointValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	pattern, data := storeGraphs()
	register(t, ts, "store", data)

	for name, req := range map[string]SearchRequest{
		"missing pattern": {},
		"bad algo":        {Pattern: pattern, Algo: "bogus"},
		"bad sim":         {Pattern: pattern, Sim: "bogus"},
		"negative k":      {Pattern: pattern, K: -1},
		"bad cap":         {Pattern: pattern, MaxCandidates: -2},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, body)
		}
	}
	bad := 1.5
	resp, _ := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: pattern, MinResemblance: &bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("min_resemblance 1.5: status %d", resp.StatusCode)
	}
	badXi := -0.5
	resp, _ = postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: pattern, Xi: &badXi})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("xi -0.5: status %d", resp.StatusCode)
	}
}

// TestSearchLargeCatalogDeterministic is the acceptance check for the
// search endpoint: over a ≥100-graph catalog, POST /v1/search returns
// the same top-k, in the same order, on every run, and the pruning
// prefilter skips most of the catalog without changing the ranking.
func TestSearchLargeCatalogDeterministic(t *testing.T) {
	ts, _ := newTestServer(t)
	// 120 chain graphs in 12 content families of 10 members each;
	// members of a family share most of their text, so a query built
	// from one family ranks its members and prunes the rest.
	const families, members = 12, 10
	var queryPattern *graph.Graph
	for f := 0; f < families; f++ {
		for m := 0; m < members; m++ {
			g := graph.New(6)
			for v := 0; v < 6; v++ {
				// Family-specific vocabulary: every 4-word shingle
				// contains family words, so cross-family containment is
				// 0 and the prefilter can separate the families.
				var content bytes.Buffer
				for w := 0; w < 10; w++ {
					fmt.Fprintf(&content, "family%dnode%dword%d ", f, v, w)
				}
				fmt.Fprintf(&content, "family%dvariant%d", f, m%3)
				g.AddNodeFull(graph.Node{
					Label:   fmt.Sprintf("n%d", v),
					Weight:  1,
					Content: content.String(),
				})
				if v > 0 {
					g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
				}
			}
			g.Finish()
			register(t, ts, fmt.Sprintf("f%02d-m%02d", f, m), g)
			if f == 3 && m == 0 {
				queryPattern = g.Clone()
			}
		}
	}

	run := func(req SearchRequest) SearchResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d, body %s", resp.StatusCode, body)
		}
		var out SearchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	names := func(out SearchResponse) []string {
		ns := make([]string, len(out.Hits))
		for i, h := range out.Hits {
			ns[i] = h.Graph
		}
		return ns
	}

	thr := 0.5
	pruned := SearchRequest{Pattern: queryPattern, Algo: "maxsim", Sim: "content", K: 8, MinResemblance: &thr}
	first := run(pruned)
	if first.Stats.Graphs != families*members {
		t.Fatalf("catalog size %d, want %d", first.Stats.Graphs, families*members)
	}
	if len(first.Hits) != 8 || first.Hits[0].Graph != "f03-m00" {
		t.Fatalf("hits = %v", names(first))
	}
	for _, h := range first.Hits {
		if h.Graph[:3] != "f03" {
			t.Fatalf("foreign family in top-k: %v", names(first))
		}
	}
	if first.Stats.Pruned < families*members/2 {
		t.Fatalf("prefilter pruned only %d of %d", first.Stats.Pruned, families*members)
	}
	for i := 0; i < 3; i++ {
		if got := names(run(pruned)); !reflect.DeepEqual(got, names(first)) {
			t.Fatalf("run %d: ranking %v != %v", i, got, names(first))
		}
	}
	// The brute-force scan agrees on the same top-k.
	brute := run(SearchRequest{Pattern: queryPattern, Algo: "maxsim", Sim: "content", K: 8, NoPrefilter: true})
	if brute.Stats.Matched != families*members {
		t.Fatalf("brute matched %d", brute.Stats.Matched)
	}
	if !reflect.DeepEqual(names(brute), names(first)) {
		t.Fatalf("brute %v != prefiltered %v", names(brute), names(first))
	}
}

// doJSON issues a request with a JSON body and an arbitrary method
// (PATCH, DELETE with body, ...).
func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// TestPatchGraphEndpoint drives a live mutation over HTTP: the patch
// changes match results immediately, without re-registering.
func TestPatchGraphEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// Pattern A→C matches data A→B→C via the path A→B→C (p-hom maps
	// pattern edges to paths), decided exactly.
	pattern := graph.FromEdgeList([]string{"A", "C"}, [][2]int{{0, 1}})
	data := graph.FromEdgeList([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
	register(t, ts, "chain", data)

	match := func() MatchResponse {
		resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{
			Pattern: pattern, Graph: "chain", Algo: "decide",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match: %d %s", resp.StatusCode, body)
		}
		var out MatchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if before := match(); !before.Holds {
		t.Fatalf("pattern should hold before the patch: %+v", before)
	}

	// Cut B→C: the path from A to any C-labelled node is gone.
	resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/chain", PatchRequest{
		DelEdges: [][2]int32{{1, 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", resp.StatusCode, body)
	}
	var pr PatchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Nodes != 3 || pr.Edges != 1 {
		t.Fatalf("patch response: %+v", pr)
	}
	if after := match(); after.Holds {
		t.Fatalf("pattern still holds after cutting B→C: %+v", after)
	}

	// Patch in a new C-labelled page linked straight from A: the
	// pattern holds again through the added node.
	resp, body = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/chain", PatchRequest{
		AddNodes: []PatchNode{{Label: "C", Weight: 1}},
		AddEdges: [][2]int32{{0, 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add patch: %d %s", resp.StatusCode, body)
	}
	if after := match(); !after.Holds {
		t.Fatalf("pattern should hold again through the added node: %+v", after)
	}
}

func TestPatchGraphEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	_, data := storeGraphs()
	register(t, ts, "store", data)

	cases := []struct {
		name   string
		target string
		req    PatchRequest
		status int
	}{
		{"empty patch", "store", PatchRequest{}, http.StatusBadRequest},
		{"unknown graph", "nope", PatchRequest{DelEdges: [][2]int32{{0, 1}}}, http.StatusNotFound},
		{"absent edge", "store", PatchRequest{DelEdges: [][2]int32{{11, 0}}}, http.StatusBadRequest},
		{"node out of range", "store", PatchRequest{AddEdges: [][2]int32{{0, 99}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/"+tc.target, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (want %d), body %s", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// TestSnapshotEndpoint exercises POST /v1/admin/snapshot against a
// store-backed engine, and the 409 on a store-less one.
func TestSnapshotEndpoint(t *testing.T) {
	e, err := engine.Open(engine.Options{Workers: 2, StorePath: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)

	_, data := storeGraphs()
	register(t, ts, "store", data)

	resp, body := postJSON(t, ts.URL+"/v1/admin/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, body)
	}
	var sr SnapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Store.Snapshots != 1 || sr.Store.SnapshotSeq == 0 {
		t.Fatalf("snapshot stats: %+v", sr.Store)
	}

	// /v1/stats now reports the store section.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil || stats.Store.LastSeq == 0 {
		t.Fatalf("stats missing store section: %+v", stats.Store)
	}

	// Without a store the endpoint conflicts.
	ts2, _ := newTestServer(t)
	resp, body = postJSON(t, ts2.URL+"/v1/admin/snapshot", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot without store: %d %s", resp.StatusCode, body)
	}
}
