// Command phomd serves the p-hom matching engine over HTTP/JSON.
//
//	phomd -addr :8080 -workers 8 -load web=site.json -load base=base.json
//
// Data graphs can be preloaded with repeated -load name=path flags
// (path is a JSON graph in the documented wire format, as produced by
// cmd/datagen) or registered at runtime:
//
//	curl -X POST localhost:8080/v1/graphs \
//	     -d '{"name": "web", "graph": {"nodes": [...], "edges": [...]}}'
//	curl -X POST localhost:8080/v1/match \
//	     -d '{"pattern": {...}, "graph": "web", "algo": "maxcard", "xi": 0.75}'
//	curl -X POST localhost:8080/v1/search \
//	     -d '{"pattern": {...}, "algo": "maxsim", "xi": 0.75, "sim": "content", "k": 5}'
//	curl localhost:8080/v1/stats
//
// Every registered graph's transitive closure is computed once and
// shared across all requests; /v1/stats reports the closure-cache hit
// rate alongside engine throughput counters.
//
// Every request is traced end to end: the last -trace-capacity
// completed traces (plus slow ones, over -trace-slow) are kept in an
// in-process flight recorder served at GET /debug/traces and
// /debug/traces/{id} (trace id or X-Request-ID), ?explain=1 on match
// and search returns the per-stage breakdown inline, and `phom trace`
// renders recorded span trees. -no-trace turns all of it off.
//
// With -store DIR the catalog is durable: every mutation (register,
// PATCH /v1/graphs/{name}, delete) is appended to a write-ahead log
// and fsynced before it is acknowledged, the WAL is compacted into a
// binary snapshot every -snapshot-every mutations (or on demand via
// POST /v1/admin/snapshot), and a restart replays snapshot + WAL —
// rebuilding closure tiers and the search index — before the listener
// accepts traffic:
//
//	phomd -addr :8080 -store /var/lib/phomd -snapshot-every 1000
//
// With -follow URL (requires -store) the process is a read-only
// replica: it boots from its local snapshot + WAL, then tails the
// primary's replication stream (GET /v1/replicate/since/{seq}),
// applying every record through the ordinary catalog path and
// persisting it locally, so a restarted follower resumes from its own
// tail. Followers serve reads (match, search, stats) with an
// X-Replication-Lag header, answer mutations with 421 + the primary's
// Location, and flip /readyz only once caught up within -ready-max-lag:
//
//	phomd -addr :8081 -store /var/lib/phomd-replica -follow http://primary:8080
//
// With -router the process is a stateless cluster front instead of a
// shard: a consistent-hash ring places every graph on one shard,
// mutations go to the owning shard's primary, single-graph reads are
// balanced across the shard's replicas within -route-max-lag, and
// /v1/search is scatter-gathered across all shards into an exact
// global top-k (see internal/cluster and DESIGN.md §11):
//
//	phomd -addr :8084 -router \
//	      -shards "s0=http://h0:8080,http://h0:8081;s1=http://h1:8080"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/closure"
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/httpapi"
)

// loadFlags collects repeated -load name=path pairs.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	maxClosures := flag.Int("max-closures", 0, "LRU bound on resident reachability indexes (0 = default)")
	maxClosureBytes := flag.Int64("max-closure-bytes", 0, "LRU byte budget for resident closures and indexes (0 = unbounded)")
	reachTier := flag.String("reach-tier", "auto", "reachability index tier: auto (by graph size) | dense | sparse")
	queueDepth := flag.Int("queue", 0, "pending-request queue depth (0 = 4×workers)")
	maxExact := flag.Int("max-exact-nodes", 16, "largest pattern accepted for the exponential decide/decide11 algorithms (0 = unlimited)")
	searchMaxCand := flag.Int("search-max-candidates", 0, "default cap on /v1/search candidates reaching the matcher (0 = unlimited)")
	searchMinRes := flag.Float64("search-min-resemblance", 0, "default /v1/search prune threshold on the shingle-containment prefilter score (0 = keep all graphs)")
	storePath := flag.String("store", "", "durable catalog directory (WAL + snapshots); empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 1000, "compact the WAL into a snapshot every N mutations (0 = only on demand via /v1/admin/snapshot); needs -store")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty disables")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request wall-time bound, propagated into the matcher as a context deadline; timed-out requests answer 504 and free their worker (0 = unbounded)")
	maxPending := flag.Int("max-pending", -1, "admission-control bound on queued+running tasks; excess requests answer 429 with Retry-After (-1 = queue depth + workers, 0 = unlimited)")
	matchConc := flag.Int("match-concurrency", 0, "cap concurrent /v1/match and /v1/match/batch requests in the transport; excess answer 429 (0 = unlimited)")
	searchConc := flag.Int("search-concurrency", 0, "cap concurrent /v1/search requests (0 = unlimited)")
	patchConc := flag.Int("patch-concurrency", 0, "cap concurrent PATCH /v1/graphs requests (0 = unlimited)")
	maxBatch := flag.Int("max-batch", 0, "largest accepted /v1/match/batch element count (0 = default, -1 = unlimited)")
	accessLog := flag.Bool("access-log", false, "log one line per request (id, method, path, status, bytes, duration) to stderr")
	follow := flag.String("follow", "", "replicate from the phomd primary at this base URL (read-only follower mode; needs -store)")
	patchBatch := flag.Int("patch-coalesce-count", 64, "batch up to N concurrent patches per graph into one commit (group commit; ≤1 disables batching)")
	patchWindow := flag.Duration("patch-coalesce-window", 0, "wait this long for a patch burst to accumulate before each batch commit (0 = batch only while a commit is in flight)")
	deltaBudget := flag.Int("closure-delta-budget", 0, "incremental closure maintenance cost budget per patch (0 = auto-sized, -1 = always rebuild)")
	readyMaxLag := flag.Uint64("ready-max-lag", 0, "follower /readyz stays 503 while replication lag exceeds this many ops; needs -follow")
	noTrace := flag.Bool("no-trace", false, "disable request tracing and the /debug/traces flight recorder")
	traceCapacity := flag.Int("trace-capacity", 0, "flight-recorder ring size: last N completed traces kept for /debug/traces (0 = default 128)")
	traceSlow := flag.Duration("trace-slow", 0, "traces at or above this duration are retained in the slow ring even after falling out of the recent one (0 = default 250ms)")
	router := flag.Bool("router", false, "run as a stateless cluster router (scatter-gather front) instead of a shard; needs -shards or -ring")
	shardsSpec := flag.String("shards", "", `router shard spec: semicolon-separated "name=primary[,replica...]" URL lists (see internal/cluster.ParseSpec); needs -router`)
	ringPath := flag.String("ring", "", "router ring config JSON file (the serialized cluster.Config); alternative to -shards")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the consistent-hash ring (0 = default 64); needs -router")
	routeMaxLag := flag.Uint64("route-max-lag", 0, "route reads only to replicas whose probed replication lag is within this many ops; needs -router")
	probeInterval := flag.Duration("probe-interval", 0, "shard /readyz health-probe period (0 = default 500ms); needs -router")
	var loads loadFlags
	flag.Var(&loads, "load", "preload a data graph as name=path.json (repeatable)")
	flag.Parse()

	if *router {
		if *storePath != "" || *follow != "" || len(loads) > 0 {
			log.Fatalf("phomd: -router is stateless and conflicts with -store, -follow and -load")
		}
		runRouter(routerFlags{
			addr:          *addr,
			shards:        *shardsSpec,
			ringPath:      *ringPath,
			vnodes:        *vnodes,
			routeMaxLag:   *routeMaxLag,
			probeInterval: *probeInterval,
			timeout:       *requestTimeout,
			accessLog:     *accessLog,
			noTrace:       *noTrace,
			traceCapacity: *traceCapacity,
			traceSlow:     *traceSlow,
			pprof:         *pprofAddr,
		})
		return
	}
	if *shardsSpec != "" || *ringPath != "" {
		log.Fatalf("phomd: -shards/-ring need -router")
	}

	if *follow != "" {
		if *storePath == "" {
			log.Fatalf("phomd: -follow requires -store (the follower persists what it replicates)")
		}
		if len(loads) > 0 {
			log.Fatalf("phomd: -load conflicts with -follow (a follower's catalog comes from the primary)")
		}
	}

	tier, err := closure.ParseTierPolicy(*reachTier)
	if err != nil {
		log.Fatalf("phomd: %v", err)
	}

	// Resolve the admission bound the way the engine resolves its pool:
	// the default keeps every admitted task's queue send non-blocking.
	resolvedWorkers := *workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	resolvedQueue := *queueDepth
	if resolvedQueue <= 0 {
		resolvedQueue = 4 * resolvedWorkers
	}
	pending := *maxPending
	if pending < 0 {
		pending = resolvedQueue + resolvedWorkers
	}

	// Bind the listener before the (possibly long) store replay so
	// orchestrators see the port up immediately: while the engine boots,
	// a placeholder handler answers /healthz 200 (the process is alive)
	// and everything else 503 with a Retry-After derived from the
	// replay's observed progress — a 30-second replay tells clients to
	// come back near its end, not every second. Once the engine is open
	// and the -load graphs are registered, the real handler is swapped
	// in atomically and /readyz flips to 200.
	est := httpapi.NewReplayEstimator()
	var handler atomic.Value // of http.Handler
	handler.Store(httpapi.Booting(est))
	lc := listen(*addr, *pprofAddr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	log.Printf("phomd listening on %s (booting)", lc.ln.Addr())

	// With -store, Open replays the persisted catalog (snapshot + WAL)
	// here — closures and search index rebuilt — while the listener
	// already answers probes.
	bootStart := time.Now()
	eng, err := engine.Open(engine.Options{
		Workers:              *workers,
		MaxClosures:          *maxClosures,
		MaxClosureBytes:      *maxClosureBytes,
		ReachTier:            tier,
		QueueDepth:           *queueDepth,
		MaxPending:           pending,
		ExactNodeLimit:       *maxExact,
		SearchMaxCandidates:  *searchMaxCand,
		SearchMinResemblance: *searchMinRes,
		StorePath:            *storePath,
		SnapshotEvery:        *snapshotEvery,
		FollowURL:            *follow,
		ReplayProgress:       est.Observe,
		PatchCoalesceCount:   *patchBatch,
		PatchCoalesceWindow:  *patchWindow,
		ClosureDeltaBudget:   *deltaBudget,
		NoTrace:              *noTrace,
		TraceCapacity:        *traceCapacity,
		TraceSlowThreshold:   *traceSlow,
	})
	if err != nil {
		log.Fatalf("phomd: opening engine: %v", err)
	}
	if *storePath != "" {
		st, _ := eng.StoreStats()
		log.Printf("store %s: replayed to seq %d (%d graphs, snapshot at seq %d, %d recovered tails) in %v",
			*storePath, st.LastSeq, eng.Catalog().Len(), st.SnapshotSeq, st.Recovered,
			time.Since(bootStart).Round(time.Millisecond))
	}

	for _, spec := range loads {
		name, path, _ := strings.Cut(spec, "=")
		g, err := loadGraph(path)
		if err != nil {
			log.Fatalf("phomd: loading %s: %v", spec, err)
		}
		start := time.Now()
		if err := eng.Register(name, g); err != nil {
			// A store-backed restart replays -load'ed graphs from the WAL
			// before this loop runs; re-registering them is the normal
			// restart-with-the-same-flags case, not a boot failure. The
			// store's copy wins (it includes any live patches).
			if *storePath != "" && errors.Is(err, catalog.ErrDuplicate) {
				log.Printf("skipping -load %q: already recovered from the store", name)
				continue
			}
			log.Fatalf("phomd: registering %q: %v", name, err)
		}
		log.Printf("registered %q: %d nodes, %d edges (closure in %v)",
			name, g.NumNodes(), g.NumEdges(), time.Since(start).Round(time.Millisecond))
	}

	// Warm-up done: swap in the real API and flip readiness. A follower
	// is ready only once it has provably been at the primary's head and
	// its lag is within -ready-max-lag — a cold replica that would serve
	// arbitrarily stale reads keeps answering /readyz 503, so load
	// balancers leave it out of rotation until it catches up.
	var ready atomic.Bool
	readyFn := ready.Load
	if *follow != "" {
		readyFn = func() bool {
			if !ready.Load() {
				return false
			}
			rs, ok := eng.ReplStats()
			return ok && rs.SyncedOnce && !rs.Diverged && rs.LagSeq <= *readyMaxLag
		}
	}
	var lg *log.Logger
	if *accessLog {
		lg = log.New(os.Stderr, "access ", log.LstdFlags|log.Lmicroseconds)
	}
	handler.Store(httpapi.NewWithOptions(eng, httpapi.Options{
		RequestTimeout:    *requestTimeout,
		MatchConcurrency:  *matchConc,
		SearchConcurrency: *searchConc,
		PatchConcurrency:  *patchConc,
		MaxBatch:          *maxBatch,
		AccessLog:         lg,
		Ready:             readyFn,
	}))
	ready.Store(true)

	if *follow != "" {
		log.Printf("phomd following %s on %s (%d workers, ready-max-lag %d)",
			*follow, lc.ln.Addr(), eng.Stats().Workers, *readyMaxLag)
	} else {
		log.Printf("phomd ready on %s (%d workers, max-pending %d, request-timeout %v)",
			lc.ln.Addr(), eng.Stats().Workers, pending, *requestTimeout)
	}
	// eng.Close drains the worker pool and — with -store — fsyncs and
	// closes the WAL, so no acknowledged mutation is left in an unsynced
	// tail when the process exits; it also runs on a listener failure,
	// since -load registrations may already sit in the WAL.
	lc.wait(eng.Close)
	if st, ok := eng.StoreStats(); ok {
		log.Printf("phomd stopped (WAL synced at seq %d)", st.LastSeq)
	} else {
		log.Printf("phomd stopped")
	}
}

// lifecycle is the serving loop the shard and -router modes share: a
// listener bound before anything slow happens, the optional pprof side
// port, and a signal-driven graceful drain.
type lifecycle struct {
	srv      *http.Server
	ln       net.Listener
	serveErr chan error
}

// listen binds addr and serves h on it in the background. The profiling
// endpoint, when pprofAddr is set, listens on its own side port, never
// on the serving address: the main server uses a dedicated handler, so
// the pprof routes net/http/pprof hangs on DefaultServeMux stay
// unreachable unless -pprof is set. This is how serving hot spots
// (closure row sweeps, greedyMatch recursion, shard fan-out) get
// profiled in place:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile
func listen(addr, pprofAddr string, h http.Handler) *lifecycle {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("phomd: %v", err)
	}
	lc := &lifecycle{
		srv:      &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		ln:       ln,
		serveErr: make(chan error, 1),
	}
	go func() { lc.serveErr <- lc.srv.Serve(ln) }()
	if pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("phomd: pprof: %v", err)
			}
		}()
	}
	return lc
}

// wait serves until SIGINT/SIGTERM, then shuts down in dependency
// order: Shutdown stops the listener and waits (up to 10 s) for
// in-flight requests, and only then does closeFn release what those
// requests were using. A listener failure runs closeFn and exits.
func (lc *lifecycle) wait(closeFn func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-lc.serveErr: // Serve only returns early on a real failure
		closeFn()
		log.Fatalf("phomd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal while draining kills the process
	log.Printf("phomd: signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lc.srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("phomd: shutdown: %v", err)
	}
	closeFn()
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadJSON(f)
}
