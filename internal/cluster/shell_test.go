package cluster

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/metrics"
	"graphmatch/internal/trace"
)

// logBuffer is a goroutine-safe access-log sink.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// chainGraph is the directed path 0→…→n-1 with one shared label; a
// 3-cycle decided against it backtracks long enough to hit a deadline.
func chainGraph(n int) *graph.Graph {
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

func cycleGraph(k int) *graph.Graph {
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

// send sends one request with the given headers and returns the response
// (body drained into the second result).
func send(t *testing.T, method, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: condition never became true", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestShellContract runs one set of transport-shell checks against
// both handlers phomd serves — the shard handler over an engine, and a
// router fronting one such shard — since both mount the same
// httpapi.Shell: request ids generated, echoed and forwarded;
// traceparent continued; the access-log format; trace ids in error
// bodies; the in-flight gauge; flight-recorder lookup by request id;
// and the phomd_http_* families `phom top` reads.
func TestShellContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		routed bool
	}{
		{"shard", false},
		{"router", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.Options{Workers: 1})
			t.Cleanup(e.Close)
			shardLog := &logBuffer{}
			shard := httptest.NewServer(httpapi.NewWithOptions(e, httpapi.Options{
				RequestTimeout: 50 * time.Millisecond,
				AccessLog:      log.New(shardLog, "", 0),
			}))
			t.Cleanup(shard.Close)
			url, accessLog := shard.URL, shardLog
			if tc.routed {
				accessLog = &logBuffer{}
				cfg := Config{Shards: []ShardConfig{{Name: "s0", Endpoints: []string{shard.URL}}}}
				_, srv := newTestRouter(t, cfg, RouterOptions{AccessLog: log.New(accessLog, "", 0)})
				url = srv.URL
			}
			if resp, body := send(t, "POST", url+"/v1/graphs",
				httpapi.RegisterRequest{Name: "path", Graph: chainGraph(1500)}, nil); resp.StatusCode != http.StatusCreated {
				t.Fatalf("register: %d %s", resp.StatusCode, body)
			}

			// Request id: generated when absent, echoed, and forwarded to
			// the engine that served the request — the shard's engine
			// error and its access-log line carry the id the client got.
			resp, body := send(t, "POST", url+"/v1/match",
				httpapi.MatchRequest{Pattern: cycleGraph(2), Graph: "no-such-graph", Algo: "maxcard"}, nil)
			id := resp.Header.Get("X-Request-ID")
			if id == "" {
				t.Fatal("no X-Request-ID generated")
			}
			if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "[req "+id+"]") {
				t.Errorf("engine error %d %s does not carry the generated id %s", resp.StatusCode, body, id)
			}
			eventually(t, "shard access log names the generated id", func() bool {
				return strings.Contains(shardLog.String(), "req_id="+id+" ")
			})
			resp, _ = send(t, "GET", url+"/healthz", nil, map[string]string{"X-Request-ID": "rid-shell-1"})
			if got := resp.Header.Get("X-Request-ID"); got != "rid-shell-1" {
				t.Errorf("echoed id %q, want rid-shell-1", got)
			}

			// The flight recorder finds the trace of any response by its
			// X-Request-ID.
			var detail httpapi.TraceDetailResponse
			eventually(t, "/debug/traces/{X-Request-ID}", func() bool {
				r, b := send(t, "GET", url+"/debug/traces/"+id, nil, nil)
				return r.StatusCode == http.StatusOK && json.Unmarshal(b, &detail) == nil
			})
			if detail.RequestID != id || detail.Route != "POST /v1/match" {
				t.Errorf("trace for %s: request_id %q route %q", id, detail.RequestID, detail.Route)
			}

			// An inbound traceparent is continued and echoed.
			const wantTrace = "0123456789abcdef0123456789abcdef"
			resp, body = send(t, "GET", url+"/v1/graphs/path", nil, map[string]string{
				"X-Request-ID": "rid-shell-2",
				"traceparent":  "00-" + wantTrace + "-00000000000000ab-01",
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("describe: %d %s", resp.StatusCode, body)
			}
			if tid, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent")); !ok || tid.String() != wantTrace {
				t.Errorf("response traceparent %q does not continue %s", resp.Header.Get("traceparent"), wantTrace)
			}
			eventually(t, "continued trace recorded as remote", func() bool {
				r, b := send(t, "GET", url+"/debug/traces/"+wantTrace, nil, nil)
				return r.StatusCode == http.StatusOK && json.Unmarshal(b, &detail) == nil && detail.Remote
			})

			// Access-log format: req_id trace_id method path status bytes dur.
			line := regexp.MustCompile(`req_id=rid-shell-2 trace_id=` + wantTrace +
				` method=GET path=/v1/graphs/path status=200 bytes=[1-9][0-9]* dur=\S+`)
			eventually(t, "access-log line", func() bool { return line.MatchString(accessLog.String()) })

			// A 504 names its trace, and the trace is retrievable here.
			resp, body = send(t, "POST", url+"/v1/match",
				httpapi.MatchRequest{Pattern: cycleGraph(3), Graph: "path", Algo: "decide"}, nil)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("slow match: %d %s, want 504", resp.StatusCode, body)
			}
			var e504 struct {
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal(body, &e504); err != nil || !hex32.MatchString(e504.TraceID) {
				t.Fatalf("504 body %s carries no trace_id", body)
			}
			eventually(t, "504 trace lookup", func() bool {
				r, _ := send(t, "GET", url+"/debug/traces/"+e504.TraceID, nil, nil)
				return r.StatusCode == http.StatusOK
			})

			// Metrics: the shell's families, under the same names in both
			// processes, and the in-flight gauge back at 0.
			var fams map[string]*metrics.Family
			eventually(t, "phomd_http_in_flight back to 0", func() bool {
				_, b := send(t, "GET", url+"/metrics", nil, nil)
				var err error
				if fams, err = metrics.Parse(bytes.NewReader(b)); err != nil {
					t.Fatalf("/metrics does not parse: %v", err)
				}
				f := fams["phomd_http_in_flight"]
				return f != nil && len(f.Samples) == 1 && f.Samples[0].Value == 0
			})
			counted := false
			for _, s := range fams["phomd_http_requests_total"].Samples {
				if s.Labels["route"] == "POST /v1/match" && s.Labels["code"] == "504" {
					counted = true
				}
			}
			if !counted {
				t.Error("phomd_http_requests_total has no POST /v1/match 504 row")
			}
			for _, want := range []string{"phomd_http_request_seconds", "phomd_http_response_bytes_total"} {
				if fams[want] == nil {
					t.Errorf("family %s missing", want)
				}
			}
			if fams["phomd_router_requests_total"] != nil || fams["phomd_router_in_flight"] != nil {
				t.Error("router duplicates of the shell families still registered")
			}
		})
	}
}
