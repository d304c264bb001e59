package engine

import (
	"graphmatch/internal/catalog"
	"graphmatch/internal/metrics"
	"graphmatch/internal/store"
)

// Metric registration for the engine and the subsystems it owns. The
// engine is the composition root of the serving stack — catalog,
// search index, and store all hang off it — so it also owns the one
// metrics.Registry the whole process exposes on /metrics. The
// transport layer (httpapi) registers its own families into the same
// registry via Engine.Metrics().
//
// Naming policy: every family is phomd_<subsystem>_<what>[_unit],
// matching ^phomd_[a-z0-9_]+$ (enforced by a lint test in httpapi).
// Counters that already exist as engine/catalog/store atomics are
// exposed as scrape-time CounterFunc/GaugeFunc collectors instead of
// being double-counted.

// searchCandidateBuckets histograms "how many candidates survived
// stage 1" — a count distribution, not a latency one.
var searchCandidateBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 250, 500, 1000}

// ratioBuckets histograms values in [0, 1] (prune rates).
var ratioBuckets = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// coneBuckets histograms delta-cone sizes (closure components rewritten
// per incremental patch) — a count distribution spanning "touched one
// component" to "touched most of a large graph".
var coneBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 1000, 10000}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// initMetrics registers the engine-pool, catalog, and search families
// and returns the patch observer the catalog is built with. Called once
// from Open, before the catalog exists and before workers start: the
// catalog and search collectors read e.cat and e.searchIdx only at
// scrape time.
func (e *Engine) initMetrics() catalog.PatchObserver {
	r := e.reg
	r.RegisterRuntime()

	// Worker pool.
	e.mTaskWait = r.Histogram("phomd_engine_task_wait_seconds",
		"Time tasks spent queued before a worker picked them up.", nil)
	e.mTaskRun = r.Histogram("phomd_engine_task_run_seconds",
		"Worker execution time per task (matrix build, closure lookup, matching).", nil)
	r.GaugeFunc("phomd_engine_queue_depth",
		"Tasks currently buffered in the worker queue.",
		func() float64 { return float64(len(e.queue)) })
	r.GaugeFunc("phomd_engine_pending",
		"Admitted tasks not yet finished executing (queued + running).",
		func() float64 { return float64(e.pending.Load()) })
	r.GaugeFunc("phomd_engine_workers",
		"Worker pool size.",
		func() float64 { return float64(e.workers) })
	r.GaugeFunc("phomd_engine_max_pending",
		"Admission-control bound on pending tasks (0 = unlimited).",
		func() float64 { return float64(e.maxPending) })
	r.CounterFunc("phomd_engine_requests_total",
		"Match submissions.",
		func() float64 { return float64(e.requests.Load()) })
	r.CounterFunc("phomd_engine_executed_total",
		"Computations actually run by workers.",
		func() float64 { return float64(e.executed.Load()) })
	r.CounterFunc("phomd_engine_errors_total",
		"Requests that finished with a non-nil error.",
		func() float64 { return float64(e.errors.Load()) })
	r.CounterFunc("phomd_engine_shed_total",
		"Requests rejected by admission control (HTTP 429).",
		func() float64 { return float64(e.shed.Load()) })
	r.CounterFunc("phomd_engine_batches_total",
		"MatchBatch calls.",
		func() float64 { return float64(e.batches.Load()) })

	// Catalog closure cache. Scrape-time snapshots of catalog.Stats.
	r.GaugeFunc("phomd_catalog_graphs",
		"Registered data graphs.",
		func() float64 { return float64(e.cat.Stats().Graphs) })
	r.CounterFunc("phomd_catalog_closure_hits_total",
		"Reachability lookups served from the closure cache.",
		func() float64 { return float64(e.cat.Stats().Hits) })
	r.CounterFunc("phomd_catalog_closure_misses_total",
		"Reachability lookups that had to build a closure.",
		func() float64 { return float64(e.cat.Stats().Misses) })
	r.CounterFunc("phomd_catalog_closure_evictions_total",
		"Closures dropped by the LRU bounds.",
		func() float64 { return float64(e.cat.Stats().Evictions) })
	r.GaugeFunc("phomd_catalog_resident_closures",
		"Reachability indexes currently cached.",
		func() float64 { return float64(e.cat.Stats().ResidentClosures) })
	r.GaugeFunc("phomd_catalog_resident_bytes",
		"Approximate heap held by resident closures.",
		func() float64 { return float64(e.cat.Stats().ResidentBytes) })
	r.GaugeFunc("phomd_catalog_candidate_index_bytes",
		"Approximate heap held by the registered graphs' candidate indexes (content postings, once a content-similarity request has built them).",
		func() float64 { return float64(e.cat.Stats().CandidateIndexBytes) })
	r.GaugeFunc("phomd_search_index_bytes",
		"Heap held by the search index's stage-1 postings (12 B per posting plus the slot table; 0 until the first search).",
		func() float64 { return float64(e.searchIdx.Bytes()) })
	r.CounterFunc("phomd_catalog_closure_build_seconds_total",
		"Cumulative wall time spent building closures.",
		func() float64 { return e.cat.Stats().BuildTime.Seconds() })

	// Live mutation (patch) maintenance.
	r.CounterFunc("phomd_catalog_patch_incremental_total",
		"Patches whose cached closures were updated in place by delta maintenance.",
		func() float64 { return float64(e.cat.Stats().PatchesIncremental) })
	r.CounterFunc("phomd_catalog_patch_rebuild_total",
		"Patches that fell back to dropping and rebuilding closures.",
		func() float64 { return float64(e.cat.Stats().PatchesRebuild) })
	patchHist := r.Histogram("phomd_catalog_patch_seconds",
		"Patch commit wall time (clone, delta or rebuild, swap).", nil)
	coneHist := r.Histogram("phomd_catalog_patch_cone_comps",
		"Closure components rewritten per incremental patch (the delta cone).",
		coneBuckets)
	obs := catalog.PatchObserver{Latency: patchHist.Observe, ConeSize: coneHist.Observe}

	// Search.
	r.CounterFunc("phomd_search_requests_total",
		"Catalog-wide search calls.",
		func() float64 { return float64(e.searches.Load()) })
	e.mSearchCandidates = r.Histogram("phomd_search_candidates",
		"Stage-1 candidates handed to the matcher per search.", searchCandidateBuckets)
	e.mSearchMatched = r.Histogram("phomd_search_matched",
		"Candidates the matcher scored per search: stage 1's less those the bound skipped and those removed between the stages.", searchCandidateBuckets)
	e.mSearchPruneRatio = r.Histogram("phomd_search_prune_ratio",
		"Fraction of the catalog stage 1 pruned per search.", ratioBuckets)
	e.mSearchStage1 = r.Histogram("phomd_search_stage1_seconds",
		"Stage-1 (candidate selection) wall time per search.", nil)
	e.mSearchStage2 = r.Histogram("phomd_search_stage2_seconds",
		"Stage-2 (ranked matching fan-out) wall time per search.", nil)
	return obs
}

// initStoreMetrics registers the WAL/snapshot families. Called from
// openStore, after replay (replay does not append, so nothing is
// missed) and before the persister is installed, so every logged
// mutation finds its histograms.
func (e *Engine) initStoreMetrics() {
	r := e.reg
	e.mStoreAppend = r.Histogram("phomd_store_append_seconds",
		"WAL append critical section (encode + write + fsync) per mutation.", nil)
	e.mStoreFsync = r.Histogram("phomd_store_fsync_seconds",
		"fsync portion of each WAL append.", nil)
	e.mStoreSnapshot = r.Histogram("phomd_store_snapshot_seconds",
		"Snapshot write wall time.", nil)
	r.CounterFunc("phomd_store_appended_total",
		"Ops logged since the store was opened.",
		func() float64 { return float64(e.store.Stats().Appended) })
	r.CounterFunc("phomd_store_snapshots_total",
		"Snapshots written since the store was opened.",
		func() float64 { return float64(e.store.Stats().Snapshots) })
	r.GaugeFunc("phomd_store_segments",
		"Live WAL segment files.",
		func() float64 { return float64(e.store.Stats().Segments) })
	r.GaugeFunc("phomd_store_wal_bytes",
		"Total size of the live WAL segments.",
		func() float64 { return float64(e.store.Stats().WALBytes) })
	r.GaugeFunc("phomd_store_since_snapshot",
		"Ops logged since the last snapshot.",
		func() float64 { return float64(e.store.Stats().SinceSnapshot) })
}

// observeAppend records one acknowledged WAL append on the store
// histograms: exactly one observation each per append.
func (e *Engine) observeAppend(tm store.AppendTiming) {
	e.mStoreAppend.Observe(tm.Total.Seconds())
	e.mStoreFsync.Observe(tm.Fsync.Seconds())
}

// initReplMetrics registers the follower's replication families.
// Called from startFollower, before the loop starts; a primary exports
// nothing here (its side of replication is ordinary store traffic,
// already covered by the phomd_store_* families).
func (e *Engine) initReplMetrics() {
	r := e.reg
	if e.follower == nil {
		return
	}
	f := e.follower
	b01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	r.GaugeFunc("phomd_repl_lag_seq",
		"Ops the primary has committed that this follower has not yet applied.",
		func() float64 { return float64(f.Stats().LagSeq) })
	r.GaugeFunc("phomd_repl_seconds_behind",
		"Seconds since this follower was last provably at the primary's head (0 when caught up).",
		func() float64 { return f.Stats().SecondsBehind })
	r.GaugeFunc("phomd_repl_last_applied_seq",
		"Newest primary sequence number durably applied locally.",
		func() float64 { return float64(f.Stats().LastApplied) })
	r.GaugeFunc("phomd_repl_primary_seq",
		"Primary head sequence number as of the last checkpoint frame.",
		func() float64 { return float64(f.Stats().PrimarySeq) })
	r.GaugeFunc("phomd_repl_connected",
		"1 while a replication stream is open to the primary.",
		func() float64 { return b01(f.Stats().Connected) })
	r.GaugeFunc("phomd_repl_synced_once",
		"1 once the follower has caught up to the primary's head at least once (the readiness precondition).",
		func() float64 { return b01(f.Stats().SyncedOnce) })
	r.GaugeFunc("phomd_repl_diverged",
		"1 between detecting an unrecoverable position and the resync that repairs it.",
		func() float64 { return b01(f.Stats().Diverged) })
	r.CounterFunc("phomd_repl_reconnects_total",
		"Replication stream reconnect attempts.",
		func() float64 { return float64(f.Stats().Reconnects) })
	r.CounterFunc("phomd_repl_resyncs_total",
		"Full bootstrap resyncs (divergence repair or behind the snapshot horizon).",
		func() float64 { return float64(f.Stats().Resyncs) })
	r.CounterFunc("phomd_repl_applied_total",
		"Replicated ops applied since this process started.",
		func() float64 { return float64(f.Stats().Applied) })
}
