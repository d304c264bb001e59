package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graphmatch/internal/cluster"
	"graphmatch/internal/engine"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/metrics"
)

// TestRouteTableOverRouter: `phom top` pointed at a router shows the
// routed requests — the router records the same phomd_http_* families
// as a shard, so routeTable needs no router-specific path.
func TestRouteTableOverRouter(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	t.Cleanup(e.Close)
	shard := httptest.NewServer(httpapi.New(e))
	t.Cleanup(shard.Close)
	rt, err := cluster.NewRouter(cluster.Config{Shards: []cluster.ShardConfig{{Name: "s0", Endpoints: []string{shard.URL}}}},
		cluster.RouterOptions{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := httptest.NewServer(rt)
	t.Cleanup(router.Close)

	get := func(path string) []byte {
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	get("/v1/graphs")
	// The shell records the request after the response is written, so
	// the scrape may briefly precede it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fams, err := metrics.Parse(bytes.NewReader(get("/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range routeTable(fams) {
			if row.route == "GET /v1/graphs" && row.reqs == 1 && row.errs == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("routeTable over the router's /metrics has no GET /v1/graphs row: %+v", routeTable(fams))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
