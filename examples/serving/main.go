// The serving example runs the full phomd stack in one process: it
// starts the HTTP server on an ephemeral port, registers a data graph
// once, fires concurrent batch match requests at it like independent
// clients would, and then reads /v1/stats to show that the data
// graph's transitive closure was computed exactly once and shared by
// every request.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
)

func main() {
	// Boot the server exactly as cmd/phomd does, on a random port.
	eng := engine.New(engine.Options{})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: httpapi.New(eng)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("phomd serving on %s\n\n", base)

	// Register one data graph: a random "web site" of 300 pages whose
	// section labels repeat, so patterns have many candidate images.
	data := randomSite(300, 4)
	post(base+"/v1/graphs", httpapi.RegisterRequest{Name: "site", Graph: data}, nil)
	fmt.Printf("registered %q: %d nodes, %d edges (closure precomputed once)\n\n",
		"site", data.NumNodes(), data.NumEdges())

	// Three client goroutines each send one batch over all four
	// approximation algorithms — twelve requests sharing one closure.
	pattern := carvePattern(data, 10)
	xi := 0.9
	var batch httpapi.BatchRequest
	for _, algo := range []string{"maxcard", "maxcard11", "maxsim", "maxsim11"} {
		batch.Requests = append(batch.Requests, httpapi.MatchRequest{
			Pattern: pattern, Graph: "site", Algo: algo, Xi: &xi,
		})
	}
	var wg sync.WaitGroup
	results := make([]httpapi.BatchResponse, 3)
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			post(base+"/v1/match/batch", batch, &results[c])
		}(c)
	}
	wg.Wait()

	for _, res := range results[0].Results {
		fmt.Printf("%-10s matched %2d/%2d nodes  qualCard=%.3f qualSim=%.3f  %dµs\n",
			res.Algo, res.Matched, res.PatternNodes, res.QualCard, res.QualSim, res.ElapsedUS)
	}

	var stats httpapi.StatsResponse
	get(base+"/v1/stats", &stats)
	fmt.Printf("\nengine: %d requests (%d executed) on %d workers\n",
		stats.Engine.Requests, stats.Engine.Executed, stats.Engine.Workers)
	fmt.Printf("catalog: %d closure hits, %d misses (hit rate %.0f%%) — closure built once at registration\n",
		stats.Catalog.Hits, stats.Catalog.Misses, stats.Catalog.HitRate*100)
}

// randomSite builds a deterministic random digraph with a small label
// alphabet.
func randomSite(n, avgDeg int) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	sections := []string{"home", "news", "sports", "arts", "video", "forum", "shop", "help"}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(sections[i%len(sections)])
	}
	for i := 0; i < n*avgDeg; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

// carvePattern takes an induced subgraph of the data graph, so the
// pattern certainly matches somewhere.
func carvePattern(g *graph.Graph, size int) *graph.Graph {
	rng := rand.New(rand.NewSource(11))
	seen := map[graph.NodeID]bool{}
	var keep []graph.NodeID
	for len(keep) < size {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}

func post(url string, body, out any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, buf.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
