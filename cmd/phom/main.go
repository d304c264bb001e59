// Command phom matches two JSON graphs with the algorithms of the
// repository:
//
//	phom -pattern p.json -data d.json -algo maxcard -xi 0.75
//
// Graphs use the documented wire format (see internal/graph): a "nodes"
// array of {label, weight, content} records and an "edges" array of
// [from, to] index pairs. Node similarity defaults to shingle resemblance
// of node contents (falling back to labels); -sim label switches to label
// equality.
//
// Algorithms: decide, decide11 (exact, exponential), maxcard, maxcard11,
// maxsim, maxsim11 (the paper's approximation algorithms), simulation
// (the graph-simulation baseline).
//
// The search verb ranks a catalog of data graphs against one pattern —
// "which of these graphs does the pattern match best?" — using the
// shingle-prefiltered top-k pipeline of the serving engine:
//
//	phom search -pattern p.json -k 5 site1.json mirrors/site2.json web=site3.json
//
// Positional arguments are data-graph files, registered under their
// base name (or an explicit name=path). -min-resemblance and
// -max-candidates bound the prefilter; -brute disables it for an
// exhaustive scan.
//
// The snapshot and compact verbs manage a phomd store (see phomd
// -store): snapshot asks a running server to compact its WAL into a
// fresh snapshot over HTTP, compact does the same offline on the store
// directory while the server is down. Both exit non-zero on failure —
// including HTTP error responses — so they can gate scripts:
//
//	phom snapshot -addr http://localhost:8080
//	phom compact -store /var/lib/phomd
//
// The metrics, top and trace verbs inspect a running phomd (see
// observe.go and trace.go):
//
//	phom metrics -addr http://localhost:8080 -grep engine_
//	phom top -addr http://localhost:8080
//	phom trace -addr http://localhost:8080 [trace-id | request-id]
//
// The patch verb applies a live edit to a graph registered on a
// running phomd — the JSON body of PATCH /v1/graphs/{name} (add_nodes,
// set_content, del_edges, add_edges), read from a file or stdin:
//
//	phom patch -addr http://localhost:8080 web edits.json
//	generate-edits | phom patch web
//
// Like snapshot, it exits non-zero on any HTTP error so mutation
// scripts can gate on success.
//
// The cluster verb inspects a phomd router (see phomd -router): ring
// layout with per-shard vnode counts and owned-graph samples, each
// endpoint's /readyz state and replication lag, non-zero exit when any
// shard is unreachable:
//
//	phom cluster -addr http://localhost:8084
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphmatch"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/store"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "search":
			runSearch(os.Args[2:])
			return
		case "snapshot":
			runSnapshot(os.Args[2:])
			return
		case "compact":
			runCompact(os.Args[2:])
			return
		case "metrics":
			runMetrics(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		case "repl":
			runRepl(os.Args[2:])
			return
		case "patch":
			runPatch(os.Args[2:])
			return
		case "trace":
			runTrace(os.Args[2:])
			return
		case "cluster":
			runCluster(os.Args[2:])
			return
		}
	}
	patternPath := flag.String("pattern", "", "pattern graph G1 (JSON)")
	dataPath := flag.String("data", "", "data graph G2 (JSON)")
	algo := flag.String("algo", "maxcard", "decide | decide11 | maxcard | maxcard11 | maxsim | maxsim11 | simulation")
	xi := flag.Float64("xi", 0.75, "node-similarity threshold ξ")
	simKind := flag.String("sim", "content", "node similarity: content (shingles) | label (equality)")
	showMapping := flag.Bool("mapping", false, "print the node mapping")
	pathLimit := flag.Int("pathlimit", 0, "bound pattern-edge images to paths of ≤ k hops (0 = unbounded; 1 = edge-to-edge)")
	symmetric := flag.Bool("symmetric", false, "match pattern paths too (replace the pattern by its transitive closure)")
	flag.Parse()

	if *patternPath == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "both -pattern and -data are required")
		flag.Usage()
		os.Exit(2)
	}
	g1, err := loadGraph(*patternPath)
	if err != nil {
		fatal(err)
	}
	g2, err := loadGraph(*dataPath)
	if err != nil {
		fatal(err)
	}

	var mat graphmatch.Matrix
	switch *simKind {
	case "content":
		mat = graphmatch.ContentSimilarity(g1, g2, 0)
	case "label":
		mat = graphmatch.LabelEquality(g1, g2)
	default:
		fatal(fmt.Errorf("unknown -sim %q", *simKind))
	}

	var opts []graphmatch.Option
	if *pathLimit > 0 {
		opts = append(opts, graphmatch.WithPathLimit(*pathLimit))
	}
	m := graphmatch.NewMatcher(g1, g2, mat, *xi, opts...)
	if *symmetric {
		m = m.Symmetric()
	}
	start := time.Now()
	var (
		sigma graphmatch.Mapping
		holds bool
	)
	switch *algo {
	case "decide":
		sigma, holds = m.IsPHom()
		fmt.Printf("G1 p-hom G2: %v\n", holds)
	case "decide11":
		sigma, holds = m.IsPHom11()
		fmt.Printf("G1 1-1 p-hom G2: %v\n", holds)
	case "maxcard":
		sigma = m.MaxCard()
	case "maxcard11":
		sigma = m.MaxCard11()
	case "maxsim":
		sigma = m.MaxSim()
	case "maxsim11":
		sigma = m.MaxSim11()
	case "simulation":
		fmt.Printf("G1 simulated by G2: %v\n", graphmatch.Simulates(g1, g2, mat, *xi))
		fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Microsecond))
		return
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}
	elapsed := time.Since(start)

	fmt.Printf("matched nodes: %d / %d\n", len(sigma), g1.NumNodes())
	fmt.Printf("qualCard: %.4f\n", m.QualCard(sigma))
	fmt.Printf("qualSim:  %.4f\n", m.QualSim(sigma))
	fmt.Printf("elapsed:  %v\n", elapsed.Round(time.Microsecond))
	if *showMapping {
		for _, v := range sigma.Domain() {
			u := sigma[v]
			fmt.Printf("  %q (#%d) -> %q (#%d)\n", g1.Label(v), v, g2.Label(u), u)
		}
	}
}

// runSearch implements the search verb over an in-process serving
// engine: register every data graph, then run one catalog-wide top-k
// search and print the ranking with the prune stats.
func runSearch(args []string) {
	fs := flag.NewFlagSet("phom search", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: phom search -pattern p.json [flags] data.json [name=path.json ...]")
		fs.PrintDefaults()
	}
	patternPath := fs.String("pattern", "", "pattern graph G1 (JSON)")
	algo := fs.String("algo", "maxsim", "maxcard | maxcard11 | maxsim | maxsim11 | decide | decide11 | simulation")
	xi := fs.Float64("xi", 0.75, "node-similarity threshold ξ")
	simKind := fs.String("sim", "content", "node similarity: content (shingles) | label (equality)")
	k := fs.Int("k", 5, "ranked hits to return")
	pathLimit := fs.Int("pathlimit", 0, "bound pattern-edge images to paths of ≤ k hops (0 = unbounded)")
	maxCand := fs.Int("max-candidates", 0, "cap prefilter candidates reaching the matcher (0 = unlimited)")
	minRes := fs.Float64("min-resemblance", 0, "prune graphs whose shingle-containment score is below this (0 = keep all)")
	brute := fs.Bool("brute", false, "skip the prefilter and match every graph (brute-force scan)")
	_ = fs.Parse(args)

	if *patternPath == "" || fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	pattern, err := loadGraph(*patternPath)
	if err != nil {
		fatal(err)
	}

	eng := graphmatch.NewEngine(graphmatch.EngineOptions{MaxClosures: fs.NArg() + 8})
	defer eng.Close()
	for _, spec := range fs.Args() {
		name, path, hasName := strings.Cut(spec, "=")
		if !hasName {
			path = spec
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		g, err := loadGraph(path)
		if err != nil {
			fatal(err)
		}
		if err := eng.Register(context.Background(), name, g); err != nil {
			fatal(err)
		}
	}

	res := eng.Search(context.Background(), graphmatch.SearchRequest{
		Pattern:        pattern,
		Algo:           graphmatch.EngineAlgorithm(*algo),
		Xi:             *xi,
		PathLimit:      *pathLimit,
		Sim:            graphmatch.SimKind(simWire(*simKind)),
		K:              *k,
		MaxCandidates:  *maxCand,
		MinResemblance: *minRes,
		NoPrefilter:    *brute,
	})
	if res.Err != nil {
		fatal(res.Err)
	}

	fmt.Printf("rank  %-24s %8s %9s %8s %6s %12s\n",
		"graph", "score", "qualCard", "qualSim", "holds", "containment")
	for i, h := range res.Hits {
		fmt.Printf("%4d  %-24s %8.4f %9.4f %8.4f %6v %12.3f\n",
			i+1, h.Graph, h.Score, h.QualCard, h.QualSim, h.Holds, h.Containment)
	}
	st := res.Stats
	fmt.Printf("\n%d graphs, %d candidates, %d pruned (%.0f%%), %d matched, %d skipped by bound; stage1 %v, stage2 %v\n",
		st.Graphs, st.Candidates, st.Pruned, st.PruneRate*100, st.Matched, st.Skipped,
		st.Stage1.Round(time.Microsecond), st.Stage2.Round(time.Microsecond))
}

// runSnapshot asks a running phomd to compact its WAL into a fresh
// snapshot via POST /v1/admin/snapshot.
func runSnapshot(args []string) {
	fs := flag.NewFlagSet("phom snapshot", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "phomd base URL")
	_ = fs.Parse(args)

	body := postOrDie(*addr + "/v1/admin/snapshot")
	var out struct {
		Store graphmatch.StoreStats `json:"store"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		fatal(fmt.Errorf("decoding response: %w", err))
	}
	st := out.Store
	fmt.Printf("snapshot written: seq %d, %d segment(s), %d WAL bytes since\n",
		st.SnapshotSeq, st.Segments, st.WALBytes)
}

// postOrDie POSTs with an empty body and returns the response body.
// Any transport failure or non-2xx status is fatal with a non-zero
// exit code — an HTTP error response must fail the command, not just
// print the server's error text and exit 0.
func postOrDie(url string) []byte {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			fatal(fmt.Errorf("%s: %s", resp.Status, e.Error))
		}
		fatal(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body))))
	}
	return body
}

// runCompact folds a store directory's WAL into a fresh snapshot
// offline (the owning phomd must be stopped).
func runCompact(args []string) {
	fs := flag.NewFlagSet("phom compact", flag.ExitOnError)
	dir := fs.String("store", "", "store directory (as passed to phomd -store)")
	_ = fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "phom compact: -store is required")
		fs.PrintDefaults()
		os.Exit(2)
	}
	info, err := store.Compact(*dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compacted %s: %d graphs at seq %d (%d WAL ops folded in)\n",
		*dir, info.Graphs, info.LastSeq, info.ReplayedOps)
}

// runPatch applies a live edit to a graph on a running phomd: the
// wire-format patch JSON (see httpapi.PatchRequest) comes from a file
// argument or stdin, is validated locally — unknown fields and an
// empty patch are caught before the request goes out — and is sent as
// PATCH /v1/graphs/{name}. The acknowledgement means the patch is
// durable (when the server has a store) and already matchable.
func runPatch(args []string) {
	fs := flag.NewFlagSet("phom patch", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: phom patch [-addr url] <graph> [patch.json]")
		fmt.Fprintln(os.Stderr, "reads the patch JSON from the file argument, or stdin when absent or \"-\"")
		fs.PrintDefaults()
	}
	addr := fs.String("addr", "http://localhost:8080", "phomd base URL")
	_ = fs.Parse(args)
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		os.Exit(2)
	}
	name := fs.Arg(0)

	var (
		raw []byte
		err error
	)
	if src := fs.Arg(1); src == "" || src == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(src)
	}
	if err != nil {
		fatal(err)
	}
	// Validate before sending: a typo'd field name would otherwise be
	// silently dropped server-side and turn into a confusing "empty
	// patch" (or worse, a partial edit).
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var pr httpapi.PatchRequest
	if err := dec.Decode(&pr); err != nil {
		fatal(fmt.Errorf("invalid patch JSON: %w", err))
	}
	if len(pr.AddNodes) == 0 && len(pr.SetContent) == 0 && len(pr.DelEdges) == 0 && len(pr.AddEdges) == 0 {
		fatal(fmt.Errorf("empty patch: nothing to apply"))
	}

	req, err := http.NewRequest(http.MethodPatch,
		*addr+"/v1/graphs/"+name, bytes.NewReader(raw))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			fatal(fmt.Errorf("%s: %s", resp.Status, e.Error))
		}
		fatal(fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body))))
	}
	var out httpapi.PatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		fatal(fmt.Errorf("decoding response: %w", err))
	}
	fmt.Printf("patched %s: %d nodes, %d edges (+%d nodes, +%d content, -%d/+%d edges)\n",
		out.Name, out.Nodes, out.Edges,
		len(pr.AddNodes), len(pr.SetContent), len(pr.DelEdges), len(pr.AddEdges))
}

// simWire maps the CLI's similarity names onto the engine's wire
// values (the CLI default "content" predates the engine's "label"
// default, so the mapping is explicit).
func simWire(s string) string {
	switch s {
	case "content", "label":
		return s
	default:
		fatal(fmt.Errorf("unknown -sim %q", s))
		return ""
	}
}

func loadGraph(path string) (*graphmatch.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phom:", err)
	os.Exit(1)
}
