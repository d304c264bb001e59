package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/search"
	"graphmatch/internal/trace"
)

// DefaultSearchK is the top-k size applied when a search request
// leaves K at 0.
const DefaultSearchK = 10

// SearchRequest asks "which registered graphs match this pattern
// best?": the pattern is scored against every graph in the catalog and
// the best K land in the result, ranked by match quality.
type SearchRequest struct {
	// Pattern is G1, the query. Normalised at submission; it must not
	// be mutated while the search is in flight.
	Pattern *graph.Graph
	// Algo selects the matching procedure run per candidate; empty
	// defaults to MaxSim (its qualSim metric gives the smoothest
	// ranking signal).
	Algo Algorithm
	// Xi is the node-similarity threshold ξ ∈ [0, 1].
	Xi float64
	// PathLimit bounds pattern-edge images, as in Request.
	PathLimit int
	// Sim selects the similarity matrix; empty defaults to SimLabel.
	Sim SimKind
	// K is the number of ranked hits to return; 0 means DefaultSearchK.
	K int
	// MaxCandidates caps how many stage-1 candidates reach the
	// matcher: 0 applies the engine's configured default, negative
	// means unlimited.
	MaxCandidates int
	// MinResemblance prunes candidates whose stage-1 content score
	// falls below it: 0 applies the engine's configured default,
	// negative disables pruning (exact search).
	MinResemblance float64
	// NoPrefilter bypasses stage 1 entirely and matches every
	// registered graph — the brute-force scan the benchmark compares
	// the prefilter against.
	NoPrefilter bool
}

// SearchHit is one ranked search result.
type SearchHit struct {
	// Graph is the registered graph name.
	Graph string
	// Score is the quality the ranking ordered by (qualSim for the
	// maxsim algorithms, qualCard for the maxcard ones, the 0/1
	// verdict for the decision procedures and the simulation
	// baseline).
	Score float64
	// Holds, Matched, QualCard and QualSim mirror the per-candidate
	// match result.
	Holds    bool
	Matched  int
	QualCard float64
	QualSim  float64
	// Containment, Resemblance and StructSim are the stage-1 prefilter
	// scores of the candidate (zero under NoPrefilter).
	Containment float64
	Resemblance float64
	StructSim   float64
}

// SearchStats reports the work a search did, stage by stage.
type SearchStats struct {
	// Graphs is the catalog size the search ran over.
	Graphs int
	// Candidates survived stage 1 and were handed to the matcher.
	Candidates int
	// Pruned counts graphs stage 1 skipped (score threshold plus
	// candidate cap) — the matcher invocations the prefilter saved.
	Pruned int
	// Matched counts candidates the matcher actually scored.
	Matched int
	// Missing counts candidates that vanished between stage 1 and
	// stage 2 (concurrently removed); they are silently dropped.
	Missing int
	// PruneRate is Pruned / Graphs, or 0 for an empty catalog.
	PruneRate float64
	// Stage1 and Stage2 are the wall times of candidate selection and
	// of the ranked matching fan-out.
	Stage1 time.Duration
	Stage2 time.Duration
}

// SearchResult carries the ranked hits and per-stage stats. Err is the
// request-level failure (validation, cancelled context, engine
// closed); per-candidate ErrNotFound from concurrent removals is not
// an error, just Stats.Missing.
type SearchResult struct {
	Hits  []SearchHit
	Stats SearchStats
	Err   error
}

// Search ranks the pattern against every registered graph and returns
// the top K hits. Stage 1 consults the candidate index (shingle
// postings + structural signatures) to order and prune the catalog
// without running the matcher; stage 2 fans the surviving candidates
// through the worker pool as one batch — concurrent, coalescible with
// other traffic, cancellable via ctx — and folds the qualities into a
// deterministic top-k (ties broken by graph name). The ranking is
// reproducible: the same catalog and request return the same hits in
// the same order on every run.
func (e *Engine) Search(ctx context.Context, req SearchRequest) SearchResult {
	e.searches.Add(1)
	if req.Algo == "" {
		req.Algo = MaxSim
	}
	ssp := trace.SpanFromContext(ctx).Child("engine.search")
	if ssp.Active() {
		ssp.SetStr("algo", string(req.Algo))
		defer ssp.End()
	}
	if err := e.validateSearch(req); err != nil {
		e.errors.Add(1)
		ssp.SetStr("error", err.Error())
		return SearchResult{Err: err}
	}
	k := req.K
	if k <= 0 {
		k = DefaultSearchK
	}
	pol := search.Policy{Brute: req.NoPrefilter}
	if !req.NoPrefilter {
		// Brute force means every graph, so neither the request's nor
		// the engine's default bounds apply to it.
		if maxCand := req.MaxCandidates; maxCand != 0 {
			pol.MaxCandidates = max(maxCand, 0)
		} else {
			pol.MaxCandidates = max(e.searchMaxCand, 0)
		}
		if minRes := req.MinResemblance; minRes != 0 {
			pol.MinResemblance = math.Max(minRes, 0)
		} else {
			pol.MinResemblance = math.Max(e.searchMinResembl, 0)
		}
	}
	// Prepare the pattern once, up front: stage 1 summarises the same
	// shingle sets every stage-2 content matrix is built from.
	prep := e.prepare(req.Pattern)

	start := time.Now()
	cands, cstats := e.searchIdx.Candidates(search.SummarizeSets(req.Pattern, prep.contentSets()), pol)
	stats := SearchStats{
		Graphs:     cstats.Graphs,
		Candidates: len(cands),
		Pruned:     cstats.PrunedScore + cstats.PrunedCap,
		Stage1:     time.Since(start),
	}
	if stats.Graphs > 0 {
		stats.PruneRate = float64(stats.Pruned) / float64(stats.Graphs)
	}
	e.mSearchStage1.Observe(stats.Stage1.Seconds())
	e.mSearchCandidates.Observe(float64(stats.Candidates))
	if stats.Graphs > 0 {
		e.mSearchPruneRatio.Observe(stats.PruneRate)
	}
	if ssp.Active() {
		s1 := ssp.ChildSpanning("search.stage1", start, start.Add(stats.Stage1))
		s1.SetInt("graphs", int64(stats.Graphs))
		s1.SetInt("candidates", int64(stats.Candidates))
		s1.SetInt("pruned", int64(stats.Pruned))
		s1.SetFloat("prune_rate", stats.PruneRate)
	}
	if err := ctx.Err(); err != nil {
		e.errors.Add(1)
		ssp.SetStr("error", err.Error())
		return SearchResult{Stats: stats, Err: decorate(ctx, fmt.Errorf("%w: %w", ErrDeadline, err))}
	}

	reqs := make([]Request, len(cands))
	for i, c := range cands {
		reqs[i] = Request{
			Pattern:   req.Pattern,
			GraphName: c.Name,
			Algo:      req.Algo,
			Xi:        req.Xi,
			PathLimit: req.PathLimit,
			Sim:       req.Sim,
		}
	}
	stage2 := time.Now()
	results := e.matchBatch(ctx, reqs, prep)

	top := search.NewTopK(k)
	var firstErr error
	for i, res := range results {
		if res.Err != nil {
			if errors.Is(res.Err, catalog.ErrNotFound) {
				stats.Missing++ // removed between the stages: not a hit, not an error
				continue
			}
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		stats.Matched++
		primary, tie := rankScore(req.Algo, res)
		top.Push(search.Hit{Name: cands[i].Name, Score: primary, Tie: tie, Payload: searchPayload{cand: cands[i], res: res}})
	}
	stats.Stage2 = time.Since(stage2)
	e.mSearchStage2.Observe(stats.Stage2.Seconds())
	if ssp.Active() {
		s2 := ssp.ChildSpanning("search.stage2", stage2, stage2.Add(stats.Stage2))
		s2.SetInt("matched", int64(stats.Matched))
		s2.SetInt("missing", int64(stats.Missing))
	}

	hits := make([]SearchHit, 0, top.Len())
	for _, h := range top.Ranked() {
		p := h.Payload.(searchPayload)
		hits = append(hits, SearchHit{
			Graph:       h.Name,
			Score:       h.Score,
			Holds:       p.res.Holds,
			Matched:     len(p.res.Mapping),
			QualCard:    p.res.QualCard,
			QualSim:     p.res.QualSim,
			Containment: p.cand.Containment,
			Resemblance: p.cand.Resemblance,
			StructSim:   p.cand.StructSim,
		})
	}
	// Per-candidate failures were already counted by the batch's wait
	// path; adding one more here would double-count them.
	return SearchResult{Hits: hits, Stats: stats, Err: firstErr}
}

// searchPayload rides through the top-k fold.
type searchPayload struct {
	cand search.Candidate
	res  Result
}

// validateSearch mirrors submit's request validation for the fields a
// search shares with a match, so malformed searches fail before any
// per-candidate work.
func (e *Engine) validateSearch(req SearchRequest) error {
	if req.Pattern == nil {
		return fmt.Errorf("engine: nil pattern")
	}
	if _, err := ParseAlgorithm(string(req.Algo)); err != nil {
		return err
	}
	if req.Sim != "" && req.Sim != SimLabel && req.Sim != SimContent {
		return fmt.Errorf("engine: unknown similarity kind %q", req.Sim)
	}
	if math.IsNaN(req.Xi) {
		return fmt.Errorf("engine: ξ is NaN")
	}
	if (req.Algo == Decide || req.Algo == Decide11) &&
		e.exactLimit > 0 && req.Pattern.NumNodes() > e.exactLimit {
		return fmt.Errorf("%w: %d nodes > limit %d",
			ErrExactLimit, req.Pattern.NumNodes(), e.exactLimit)
	}
	return nil
}

// rankScore maps a match result onto the (primary, tie) ranking keys
// of the fold: whatever quality metric the chosen algorithm optimises
// ranks first, the other metric splits ties, and the graph name splits
// what remains (inside search.Better).
func rankScore(algo Algorithm, res Result) (primary, tie float64) {
	switch algo {
	case MaxSim, MaxSim11:
		return res.QualSim, res.QualCard
	case Decide, Decide11, Simulation:
		verdict := 0.0
		if res.Holds {
			verdict = 1
		}
		return verdict, res.QualSim
	default:
		return res.QualCard, res.QualSim
	}
}
