package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
	"graphmatch/internal/syngen"
	"graphmatch/internal/webgen"
)

// rounds is how many times the fixed operation sequence of a workload
// is replayed in one run; every end-to-end timing is the median over
// them.
const rounds = 5

// clients is the number of closed-loop keep-alive connections, one per
// CPU of the 2-core host the sizes were calibrated on. It is a
// constant, not NumCPU, so the request interleaving — and with it the
// mutate_read patch order — is the same on every host.
const clients = 2

type opKind uint8

const (
	opMatch opKind = iota
	opSearch
	opPatch
)

// op is one pre-encoded request plus what verification needs to check
// its answer without decoding the body again.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte

	graph   string       // target graph (match, patch)
	algo    string       // match only
	pattern *graph.Graph // match and search
	patch   *graph.Patch // patch only
}

// slot is one position of a client's round sequence: a read that is
// replayed identically every round, or a marker that consumes the
// client's next unused patch (the patch sequence continues across
// rounds — replaying a patch would delete an edge twice).
type slot struct {
	read  *op
	patch bool
}

// workload is one seeded, fully materialised input set.
type workload struct {
	name string
	// maxClosures and unlimitedPending become the phomd flags (and the
	// in-process engine options of the traced run) this workload needs
	// beyond the defaults.
	maxClosures      int
	unlimitedPending bool
	// graphs is the catalog the store is prepared with.
	graphs map[string]*graph.Graph
	// seq[c] is client c's round sequence; patches[c] its patch supply.
	seq     [clients][]slot
	patches [clients][]*op
	// warmup is how many slots of each client's sequence (wrapping
	// around, patches skipped) are replayed untimed after every boot.
	warmup int
	// verifyEvery is the stride of off-the-clock response checks.
	verifyEvery int
	// traceOps is how many leading operations the traced run replays.
	traceOps int
	// xi is the similarity threshold every request of the workload
	// uses (verification rebuilds the instance with it).
	xi float64
	// content selects shingle similarity instead of label equality.
	content bool
}

// size holds every knob a workload generator reads. The full values
// are the calibrated ones recorded in BENCHMARK.json; -smoke swaps in
// toy values that keep every code path but finish in a blink.
type size struct {
	graphs   int // point_label, mutate_read: catalog size; web_search: sites
	nodes    int // nodes per graph (web_search: pages per site version)
	versions int // web_search only
	patMin   int
	patMax   int
	// opsPerSecond × -seconds ÷ rounds is N, the operations of one
	// round. It is the measured closed-loop rate of this workload on
	// the reference host, so one round takes about seconds/rounds
	// there; on any host the work is fixed by (seed, seconds), never by
	// the clock.
	opsPerSecond float64
	minOps       int
	warmupOps    int
	traceOps     int
}

var fullSizes = map[string]size{
	"point_label": {graphs: 64, nodes: 2000, patMin: 6, patMax: 15, opsPerSecond: 1800, minOps: 400, warmupOps: 2600, traceOps: 512},
	"deep_match":  {graphs: 1, nodes: 100000, patMin: 6, patMax: 14, opsPerSecond: 64, minOps: 40, warmupOps: 84, traceOps: 48},
	"web_search":  {graphs: 10, nodes: 60, versions: 11, patMin: 8, patMax: 16, opsPerSecond: 62, minOps: 40, warmupOps: 80, traceOps: 24},
	"mutate_read": {graphs: 8, nodes: 2000, patMin: 6, patMax: 15, opsPerSecond: 1000, minOps: 200, warmupOps: 3600, traceOps: 512},
}

var smokeSizes = map[string]size{
	"point_label": {graphs: 4, nodes: 200, patMin: 4, patMax: 8, minOps: 120, warmupOps: 8, traceOps: 16},
	"deep_match":  {graphs: 1, nodes: 3000, patMin: 8, patMax: 16, minOps: 12, warmupOps: 2, traceOps: 4},
	"web_search":  {graphs: 2, nodes: 60, versions: 6, patMin: 4, patMax: 8, minOps: 12, warmupOps: 2, traceOps: 4},
	"mutate_read": {graphs: 4, nodes: 300, patMin: 4, patMax: 8, minOps: 120, warmupOps: 8, traceOps: 40},
}

var workloadNames = []string{"point_label", "deep_match", "web_search", "mutate_read"}

var matchAlgos = []string{"maxcard", "maxcard11", "maxsim", "maxsim11"}

func (s size) opsPerRound(seconds int) int {
	n := int(s.opsPerSecond * float64(seconds) / rounds)
	if n < s.minOps {
		n = s.minOps
	}
	return (n + clients - 1) / clients * clients // every client replays the same number of slots
}

// generate materialises the named workload for (seed, seconds).
func generate(name string, seed int64, seconds int, smoke bool) (*workload, error) {
	sizes := fullSizes
	if smoke {
		sizes = smokeSizes
	}
	s, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	n := s.opsPerRound(seconds)
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "point_label":
		w = genPointLabel(s, n, rng)
	case "deep_match":
		w = genDeepMatch(s, n, rng)
	case "web_search":
		w = genWebSearch(s, n, rng)
	case "mutate_read":
		w = genMutateRead(s, n, rng)
	}
	w.name = name
	w.warmup = s.warmupOps / clients
	w.traceOps = s.traceOps
	return w, nil
}

func matchOp(pattern *graph.Graph, graphName, algo string, xi float64) *op {
	body, err := json.Marshal(httpapi.MatchRequest{Pattern: pattern, Graph: graphName, Algo: algo, Xi: &xi})
	if err != nil {
		panic(err) // a generated graph always encodes
	}
	return &op{kind: opMatch, method: "POST", path: "/v1/match", body: body, graph: graphName, algo: algo, pattern: pattern}
}

// bowTies registers count GenerateLarge graphs of the given shape
// under "g00", "g01", … and returns the names in order.
func bowTies(w *workload, count int, cfg syngen.LargeConfig, rng *rand.Rand) []string {
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("g%02d", i)
		cfg.Seed = rng.Int63()
		w.graphs[names[i]] = syngen.GenerateLarge(cfg)
	}
	return names
}

// cycle walks lo..hi as k counts up in steps of every. Pattern sizes
// and algorithms are cycled, not drawn: request cost is close to linear
// in pattern size, so drawing sizes would make total work — and with it
// every end-to-end metric — vary from seed to seed by more than the
// program's own run-to-run noise. The seed still picks the graphs, the
// target of each request and what is carved out of it.
func cycle(k, every, lo, hi int) int { return lo + (k/every)%(hi-lo+1) }

// pointMatch is the k-th label match of a workload: a pattern carved
// from one of names. Each client sees every algorithm at every size.
func pointMatch(w *workload, s size, names []string, k int, rng *rand.Rand) *op {
	name := names[rng.Intn(len(names))]
	sz := cycle(k, clients*len(matchAlgos), s.patMin, s.patMax)
	p := syngen.CarvePattern(w.graphs[name], sz, rng.Int63())
	return matchOp(p, name, matchAlgos[cycle(k, clients, 0, len(matchAlgos)-1)], w.xi)
}

func genPointLabel(s size, n int, rng *rand.Rand) *workload {
	w := &workload{graphs: map[string]*graph.Graph{}, xi: 0.9, verifyEvery: 50}
	names := bowTies(w, s.graphs, syngen.LargeConfig{Nodes: s.nodes, AvgDeg: 4, Labels: 64}, rng)
	for i := 0; i < n; i++ {
		w.seq[i%clients] = append(w.seq[i%clients], slot{read: pointMatch(w, s, names, i, rng)})
	}
	return w
}

func genDeepMatch(s size, n int, rng *rand.Rand) *workload {
	// Every response is checked: the graph is static, so its closure is
	// computed once and CheckMapping is cheap beside a 31 ms match.
	w := &workload{graphs: map[string]*graph.Graph{}, xi: 0.9, verifyEvery: 1}
	w.graphs["web"] = syngen.GenerateLarge(syngen.LargeConfig{Nodes: s.nodes, Seed: rng.Int63()})
	for i := 0; i < n; i++ {
		w.seq[i%clients] = append(w.seq[i%clients], slot{read: pointMatch(w, s, []string{"web"}, i, rng)})
	}
	return w
}

func genWebSearch(s size, n int, rng *rand.Rand) *workload {
	w := &workload{
		graphs: map[string]*graph.Graph{}, xi: 0.75, content: true, verifyEvery: 10,
		// A search fans its whole candidate set into the pool at once;
		// the default -max-pending (queue + workers = 10 here) would
		// answer 429 to any search with more candidates even with one
		// client. -max-closures must hold every site version.
		unlimitedPending: true, maxClosures: s.graphs*s.versions + 8,
	}
	categories := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	var versions []*graph.Graph
	for site := 0; site < s.graphs; site++ {
		arch := webgen.Generate(webgen.Config{
			Category: categories[site%len(categories)],
			Pages:    s.nodes,
			Versions: s.versions,
			Seed:     rng.Int63(),
		})
		for v, g := range arch.Versions {
			w.graphs[fmt.Sprintf("site%02d.v%02d", site, v)] = g
			versions = append(versions, g)
		}
	}
	xi, minRes := w.xi, 0.1
	for i := 0; i < n; i++ {
		hubs := cycle(i, clients, s.patMin, s.patMax)
		p := webgen.TopKSkeleton(versions[rng.Intn(len(versions))], hubs)
		body, err := json.Marshal(httpapi.SearchRequest{
			Pattern: p, Algo: "maxsim", Xi: &xi, Sim: "content", K: 5, MinResemblance: &minRes,
		})
		if err != nil {
			panic(err)
		}
		w.seq[i%clients] = append(w.seq[i%clients], slot{read: &op{
			kind: opSearch, method: "POST", path: "/v1/search", body: body, pattern: p,
		}})
	}
	return w
}

// genMutateRead follows cmd/benchpatch's tendril recipe: IN→core and
// core→OUT inserts, deletes of the client's own earlier inserts, and an
// occasional node append. Such edges never merge strongly connected
// components, so the catalog's delta path stays applicable. Each client
// owns a disjoint half of the graphs, which fixes every graph's
// operation order whatever the interleaving of the two connections.
func genMutateRead(s size, n int, rng *rand.Rand) *workload {
	w := &workload{graphs: map[string]*graph.Graph{}, xi: 0.9, verifyEvery: 50}
	names := bowTies(w, s.graphs, syngen.LargeConfig{Nodes: s.nodes, AvgDeg: 4, Labels: 64}, rng)
	var owned [clients][]string
	for i, name := range names {
		owned[i%clients] = append(owned[i%clients], name)
	}
	type roles struct {
		ins, outs, cores []graph.NodeID
		nodes            int
		live             [][2]graph.NodeID // own IN→core inserts not yet deleted
		has              map[[2]graph.NodeID]bool
	}
	role := map[string]*roles{}
	for _, name := range names {
		g := w.graphs[name]
		r := &roles{nodes: g.NumNodes(), has: map[[2]graph.NodeID]bool{}}
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			switch {
			case g.InDegree(id) == 0:
				r.ins = append(r.ins, id)
			case g.OutDegree(id) == 0:
				r.outs = append(r.outs, id)
			default:
				r.cores = append(r.cores, id)
			}
		}
		role[name] = r
	}
	nextPatch := func(name string, k int) *op {
		r, g := role[name], w.graphs[name]
		var pr httpapi.PatchRequest
		p := &graph.Patch{}
		fresh := func(from, to []graph.NodeID) [2]graph.NodeID {
			for {
				e := [2]graph.NodeID{from[rng.Intn(len(from))], to[rng.Intn(len(to))]}
				if !r.has[e] && !g.HasEdge(e[0], e[1]) {
					r.has[e] = true
					return e
				}
			}
		}
		switch {
		case k%3 == 2 && len(r.live) > 0:
			e := r.live[0]
			r.live = r.live[1:]
			delete(r.has, e)
			p.DelEdges = [][2]graph.NodeID{e}
			pr.DelEdges = [][2]int32{{int32(e[0]), int32(e[1])}}
		case k%10 == 9:
			nid := graph.NodeID(r.nodes)
			r.nodes++
			from := r.cores[rng.Intn(len(r.cores))]
			content := fmt.Sprintf("page appended by patch %d of %s", k, name)
			p.AddNodes = []graph.Node{{Label: "new", Weight: 1, Content: content}}
			p.AddEdges = [][2]graph.NodeID{{from, nid}}
			pr.AddNodes = []httpapi.PatchNode{{Label: "new", Weight: 1, Content: content}}
			pr.AddEdges = [][2]int32{{int32(from), int32(nid)}}
		case k%2 == 0:
			e := fresh(r.ins, r.cores)
			r.live = append(r.live, e)
			p.AddEdges = [][2]graph.NodeID{e}
			pr.AddEdges = [][2]int32{{int32(e[0]), int32(e[1])}}
		default:
			e := fresh(r.cores, r.outs)
			p.AddEdges = [][2]graph.NodeID{e}
			pr.AddEdges = [][2]int32{{int32(e[0]), int32(e[1])}}
		}
		body, err := json.Marshal(pr)
		if err != nil {
			panic(err)
		}
		return &op{kind: opPatch, method: "PATCH", path: "/v1/graphs/" + name, body: body, graph: name, patch: p}
	}

	// 3 of every 10 slots are patches; the read at each remaining slot
	// is drawn once and replayed every round.
	perGraph := map[string]int{}
	reads := 0
	for i := 0; i < n; i++ {
		c := i % clients
		if (i/clients)%10 < 3 {
			w.seq[c] = append(w.seq[c], slot{patch: true})
			continue
		}
		w.seq[c] = append(w.seq[c], slot{read: pointMatch(w, s, owned[c], reads, rng)})
		reads++
	}
	for c := 0; c < clients; c++ {
		slots := 0
		for _, sl := range w.seq[c] {
			if sl.patch {
				slots++
			}
		}
		for k := 0; k < slots*rounds; k++ {
			name := owned[c][k%len(owned[c])]
			w.patches[c] = append(w.patches[c], nextPatch(name, perGraph[name]))
			perGraph[name]++
		}
	}
	return w
}

// phomdFlags are the flags the child runs with, beyond -addr and
// -store. Everything else is the server's default.
func (w *workload) phomdFlags() []string {
	var flags []string
	if w.unlimitedPending {
		flags = append(flags, "-max-pending", "0")
	}
	if w.maxClosures > 0 {
		flags = append(flags, "-max-closures", fmt.Sprint(w.maxClosures))
	}
	return flags
}

// graphNames lists the catalog in sorted order.
func (w *workload) graphNames() []string {
	names := make([]string, 0, len(w.graphs))
	for n := range w.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opsPerRound is N: reads plus patch slots over both clients.
func (w *workload) opsPerRound() int {
	n := 0
	for c := range w.seq {
		n += len(w.seq[c])
	}
	return n
}

// fingerprint hashes the complete request sequence — every client's
// slots in order, then its patch supply — so a test can assert that a
// seed fixes the bytes on the wire.
func (w *workload) fingerprint() string {
	h := sha256.New()
	put := func(o *op) {
		fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
		h.Write(o.body)
	}
	for c := range w.seq {
		for _, sl := range w.seq[c] {
			if sl.patch {
				fmt.Fprintln(h, "patch-slot")
				continue
			}
			put(sl.read)
		}
		for _, p := range w.patches[c] {
			put(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
