package graphmatch

import (
	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/store"
)

// Serving layer. Engine turns the one-shot Matcher library into a
// long-lived service: data graphs are registered once in a catalog
// that computes and shares each graph's reachability index (with an
// LRU bound on resident closures), and match requests are dispatched
// over a worker pool, one task per request on its caller's context. See
// cmd/phomd for the HTTP transport over this API and DESIGN.md for the
// architecture.
type (
	// Engine schedules match requests against registered data graphs.
	// Create one with NewEngine; Close it to release the worker pool.
	Engine = engine.Engine
	// EngineOptions configures NewEngine (worker count, closure-cache
	// bound, admission bound). The zero value picks sensible defaults.
	EngineOptions = engine.Options
	// MatchRequest is one unit of engine work: a pattern, the name of
	// a registered data graph, an algorithm, ξ, and variants.
	MatchRequest = engine.Request
	// MatchResult carries a mapping, the paper's quality metrics and
	// timing.
	MatchResult = engine.Result
	// EngineAlgorithm names a matching procedure in a MatchRequest.
	EngineAlgorithm = engine.Algorithm
	// SimKind selects how a request derives its similarity matrix.
	SimKind = engine.SimKind
	// SearchRequest asks the engine which registered graphs match a
	// pattern best: the catalog-wide top-k ranking of Engine.Search.
	// A shingle/structural prefilter prunes the catalog before the
	// matcher runs (see MaxCandidates / MinResemblance knobs).
	SearchRequest = engine.SearchRequest
	// SearchResult carries the ranked hits plus per-stage stats
	// (candidates considered, prune rate, stage timings).
	SearchResult = engine.SearchResult
	// SearchHit is one ranked search result: a graph name with its
	// match quality and prefilter scores.
	SearchHit = engine.SearchHit
	// SearchStats reports the work one search did, stage by stage.
	SearchStats = engine.SearchStats
	// GraphPatch is a live in-place edit of a registered data graph:
	// nodes appended, edges added and deleted, contents rewritten. Apply
	// one with Engine.ApplyPatch; with a store it is durable before it
	// is acknowledged. See the internal/graph documentation for the
	// application semantics.
	GraphPatch = graph.Patch
	// ContentUpdate rewrites one node's content inside a GraphPatch.
	ContentUpdate = graph.ContentUpdate
	// StoreStats reports the durability subsystem's counters (WAL
	// position, snapshot state, recovered tails); see Engine.StoreStats.
	StoreStats = store.Stats
)

// Engine algorithm names.
const (
	// AlgoMaxCard runs compMaxCard (CPH approximation, Fig. 3).
	AlgoMaxCard = engine.MaxCard
	// AlgoMaxCard11 runs compMaxCard1−1 (CPH1-1).
	AlgoMaxCard11 = engine.MaxCard11
	// AlgoMaxSim runs compMaxSim (SPH).
	AlgoMaxSim = engine.MaxSim
	// AlgoMaxSim11 runs compMaxSim1−1 (SPH1-1).
	AlgoMaxSim11 = engine.MaxSim11
	// AlgoDecide decides p-hom exactly (exponential).
	AlgoDecide = engine.Decide
	// AlgoDecide11 decides 1-1 p-hom exactly (exponential).
	AlgoDecide11 = engine.Decide11
	// AlgoSimulation runs the graph-simulation baseline.
	AlgoSimulation = engine.Simulation
)

// Similarity kinds for MatchRequest.Sim.
const (
	// SimLabel scores 1 for equal labels, 0 otherwise (the default).
	SimLabel = engine.SimLabel
	// SimContent scores shingle resemblance of node contents.
	SimContent = engine.SimContent
)

// NewEngine starts a serving engine. A zero Options value sizes the
// worker pool to GOMAXPROCS and the closure cache to its default bound.
//
//	eng := graphmatch.NewEngine(graphmatch.EngineOptions{})
//	defer eng.Close()
//	eng.Register(ctx, "web", dataGraph)
//	res := eng.Match(ctx, graphmatch.MatchRequest{
//		Pattern: pattern, GraphName: "web",
//		Algo: graphmatch.AlgoMaxCard, Xi: 0.75,
//	})
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// OpenEngine starts a serving engine with durability: when
// opts.StorePath names a directory, every catalog mutation (Register,
// Remove, ApplyPatch) is appended to a write-ahead log and fsynced
// before it is acknowledged, and OpenEngine replays the persisted
// snapshot + WAL — rebuilding closures and the search index — before
// returning.
//
//	eng, err := graphmatch.OpenEngine(graphmatch.EngineOptions{
//		StorePath:     "/var/lib/phomd",
//		SnapshotEvery: 1000, // compact the WAL every 1000 mutations
//	})
//	defer eng.Close() // drains workers, fsyncs and closes the WAL
func OpenEngine(opts EngineOptions) (*Engine, error) { return engine.Open(opts) }
