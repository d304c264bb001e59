//go:build !race

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/webgen"
)

// TestClusterSearchScales is the sharded tier's throughput gate. A
// router over 3 shards × 2 replicas must serve /v1/search at 2.0× the
// q/s of one node holding the same catalog, with every routed top-k
// bit-identical to the node's. Every node has one worker, so the ratio
// is the cluster's horizontal parallelism and nothing else. On a host
// with no more cores than shards that parallelism cannot show (the run
// times the scheduler, not the architecture), so the test skips as
// cpu_limited. It is a timed gate: -short skips it and the race build
// leaves it out.
func TestClusterSearchScales(t *testing.T) {
	const (
		shards, replicas       = 3, 2
		sites, versions, pages = 9, 2, 30
		patternNodes, k        = 8, 10
		reps, clients          = 3, 8
		minSpeedup             = 2.0
	)
	if testing.Short() {
		t.Skip("timed gate: skipped under -short")
	}
	if n := runtime.NumCPU(); n <= shards {
		t.Skipf("cpu_limited: %d CPU(s) for a %d-shard cluster, the %.1fx gate is not measurable here", n, shards, minSpeedup)
	}

	cats := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	var names []string
	var graphs, patterns []*graph.Graph
	for s := 0; s < sites; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: cats[s%len(cats)],
			Pages:    pages,
			Versions: versions,
			Seed:     int64(4000 + s),
		})
		for v, g := range arch.Versions {
			names = append(names, fmt.Sprintf("s%02dv%02d", s, v))
			graphs = append(graphs, g)
		}
		patterns = append(patterns, webgen.TopKSkeleton(arch.Versions[0], patternNodes))
	}

	opts := engine.Options{Workers: 1}
	single := serveNode(t, engine.New(opts))
	nodes, rt, router := clusterOf(t, shards, replicas, opts, RouterOptions{RequestTimeout: 2 * time.Minute})
	for i, name := range names {
		for _, base := range []string{router.URL, single.srv.URL} {
			if code, body := postJSON(t, base+"/v1/graphs",
				httpapi.RegisterRequest{Name: name, Graph: graphs[i]}); code != http.StatusCreated {
				t.Fatalf("register %s on %s: %d %s", name, base, code, body)
			}
		}
	}
	waitReplicated(t, rt, nodes)

	// The exactness pass doubles as the warm-up.
	var bodies [][]byte
	for pi, p := range patterns {
		req := httpapi.SearchRequest{Pattern: p, Algo: "maxsim", Sim: "content", K: k}
		rHits, sHits := searchHits(t, router.URL, req), searchHits(t, single.srv.URL, req)
		if !bytes.Equal(rHits, sHits) {
			t.Fatalf("pattern %d: top-k diverges\ncluster: %s\nsingle:  %s", pi, rHits, sHits)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	var queries [][]byte
	for range reps {
		queries = append(queries, bodies...)
	}

	one := drive(t, single.srv.URL, queries, clients)
	all := drive(t, router.URL, queries, clients)
	speedup := all.qps / one.qps
	t.Logf("%d graphs, %d queries, %d clients: single %.1f q/s (p50 %v, p95 %v); %d×%d cluster %.1f q/s (p50 %v, p95 %v); %.2fx",
		len(graphs), len(queries), clients, one.qps, one.p50, one.p95, shards, replicas, all.qps, all.p50, all.p95, speedup)
	if speedup < minSpeedup {
		t.Fatalf("cluster search throughput is %.2fx the single node's, want ≥ %.1fx", speedup, minSpeedup)
	}
}

// searchHits runs one search and returns its hit array re-marshalled,
// so field order and float formatting cannot differ between sides, only
// values.
func searchHits(t *testing.T, base string, req httpapi.SearchRequest) []byte {
	t.Helper()
	code, body := postJSON(t, base+"/v1/search", req)
	if code != http.StatusOK {
		t.Fatalf("search on %s: %d %s", base, code, body)
	}
	var sr httpapi.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	hits, err := json.Marshal(sr.Hits)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// side is one side's measured search serving.
type side struct {
	qps      float64
	p50, p95 time.Duration
}

// drive posts every query once to base/v1/search from clients
// concurrent workers and reports the aggregate rate and latency.
func drive(t *testing.T, base string, queries [][]byte, clients int) side {
	t.Helper()
	lat := make([]time.Duration, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(queries); i = int(next.Add(1) - 1) {
				q := time.Now()
				resp, err := client.Post(base+"/v1/search", "application/json", bytes.NewReader(queries[i]))
				if err != nil {
					t.Errorf("search on %s: %v", base, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search on %s: status %d", base, resp.StatusCode)
					return
				}
				lat[i] = time.Since(q)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if t.Failed() {
		t.FailNow()
	}
	slices.Sort(lat)
	return side{
		qps: float64(len(queries)) / elapsed.Seconds(),
		p50: lat[len(lat)/2],
		p95: lat[len(lat)*95/100],
	}
}
