package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// live is the child currently running, so that an interrupt can stop
// it before the benchmark exits.
var live atomic.Pointer[child]

// runOpts is one invocation: a workload, its seed, and how long a run
// of it should take on the reference host.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	bin      string // the phomd binary under test
	workDir  string // scratch space, removed by the caller
}

// boots is how many times set-up is measured per run; setup_s is the
// median. Every boot starts from the same prepared store.
func (o runOpts) boots() int {
	if o.smoke {
		return 1
	}
	return 3
}

// runWorkload measures one workload end to end and, with o.trace, by
// layer. An error means the benchmark itself could not run; wrong
// answers from the server are counted in the report instead.
func runWorkload(o runOpts) (*report, error) {
	w, err := generate(o.workload, o.seed, o.seconds, o.smoke)
	if err != nil {
		return nil, err
	}
	env := newStamp(w, o.seed, o.seconds)
	storeDir := filepath.Join(o.workDir, "store")
	snapshot, snapshotBytes, err := prepareStore(storeDir, w)
	if err != nil {
		return nil, fmt.Errorf("preparing store: %w", err)
	}

	// The generator keeps to one CPU while it drives the child: its two
	// client goroutines spend their time blocked on the network, and
	// letting them spread over both CPUs of the reference host made
	// rounds of ~1 ms requests swing ±5 % (against ±1 % this way) by
	// competing with the server's two workers for a core.
	restore := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(restore)

	// Set-up, several times over; the last child serves the rounds.
	var (
		c             *child
		d             *driver
		setups, ready []float64
	)
	for i := 0; i < o.boots(); i++ {
		var setup time.Duration
		c, d, setup, err = setupOnce(o.bin, storeDir, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		ready = append(ready, float64(c.bootReady.Microseconds())/1000)
		if i < o.boots()-1 {
			d.close()
			c.kill()
		}
	}
	defer func() { d.close(); c.kill() }()

	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	v := newVerifier(w)
	n := float64(w.opsPerRound())
	var opsS, p50, p95, p99, cpuOp, wp50, wp95, genShare, walls []float64
	var reads, writes int
	for r := 0; r < rounds; r++ {
		res, err := d.replay(len(w.seq[0]), true)
		if err != nil {
			return nil, err
		}
		var rl, wl []float64
		for _, ss := range res.samples {
			for _, s := range ss {
				ms := float64(s.lat.Nanoseconds()) / 1e6
				if s.op.kind == opPatch {
					wl = append(wl, ms)
				} else {
					rl = append(rl, ms)
				}
			}
		}
		sort.Float64s(rl)
		sort.Float64s(wl)
		reads, writes = len(rl), len(wl)
		walls = append(walls, res.wall.Seconds())
		opsS = append(opsS, n/res.wall.Seconds())
		p50 = append(p50, percentile(rl, 0.50))
		p95 = append(p95, percentile(rl, 0.95))
		p99 = append(p99, percentile(rl, 0.99))
		wp50 = append(wp50, percentile(wl, 0.50))
		wp95 = append(wp95, percentile(wl, 0.95))
		cpuOp = append(cpuOp, res.childCPU/n)
		genShare = append(genShare, res.genCPU/(res.genCPU+res.childCPU))
		v.checkRound(res, r == 0)
	}
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	v.checkTopK(d)
	if len(w.patches[0]) > 0 {
		// Durability: kill -9, reboot from the store, compare every
		// graph with the acknowledged state.
		d.close()
		c.kill()
		if c, err = startChild(o.bin, storeDir, w.phomdFlags()); err != nil {
			return nil, fmt.Errorf("reboot after kill -9: %w", err)
		}
		d = newDriver(c, w)
		v.checkDurability(c)
	}

	quality := 0.0
	if v.qualityN > 0 {
		quality = v.qualitySum / float64(v.qualityN)
	}
	rep := &report{
		Workload:  w.name,
		Env:       env,
		Attempted: v.attempted,
		Failed:    v.failed(),
		Failures:  v.failures,
		EndToEnd: []metric{
			overValues("ops_s", "1/s", opsS, int(n)),
			overValues("p50_ms", "ms", p50, reads),
			overValues("p95_ms", "ms", p95, reads),
			overValues("cpu_ms_per_op", "ms", cpuOp, int(n)),
			single("quality_mean", "ratio", quality, v.qualityN),
			overValues("setup_s", "s", setups, w.warmup*clients),
		},
	}
	rep.Correct = rep.Failed == 0

	// Per-layer numbers that come from outside the program for free:
	// client-side tails and counter deltas over the untraced rounds.
	ds := func(name string) float64 { return after.sum[name] - before.sum[name] }
	dc := func(name string) float64 { return after.count[name] - before.count[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ae, be := after.stats.Engine, before.stats.Engine
	ac, bc := after.stats.Catalog, before.stats.Catalog
	acked := float64(writes * rounds)
	wall := overValues("", "", walls, 0)
	rep.PerLayer = []metric{
		overValues("httpapi.p99_ms", "ms", p99, reads),
		overValues("httpapi.patch_p50_ms", "ms", wp50, writes),
		overValues("httpapi.patch_p95_ms", "ms", wp95, writes),
		single("engine.queue_wait_ms", "ms", 1000*ratio(ds("phomd_engine_task_wait_seconds"), dc("phomd_engine_task_wait_seconds")), int(dc("phomd_engine_task_wait_seconds"))),
		single("engine.coalesced_ratio", "ratio", ratio(float64(ae.Coalesced-be.Coalesced), float64(ae.Requests-be.Requests)), int(ae.Requests-be.Requests)),
		single("engine.shed", "count", float64(ae.Shed-be.Shed), int(ae.Requests-be.Requests)),
		single("catalog.hit_ratio", "ratio", ratio(float64(ac.Hits-bc.Hits), float64(ac.Hits-bc.Hits+ac.Misses-bc.Misses)), int(ac.Hits-bc.Hits+ac.Misses-bc.Misses)),
		single("catalog.patch_incremental_ratio", "ratio", ratio(float64(ac.PatchesIncremental-bc.PatchesIncremental), float64(ac.PatchesIncremental-bc.PatchesIncremental+ac.PatchesRebuild-bc.PatchesRebuild)), int(acked)),
		single("catalog.resident_mb", "MB", float64(ac.ResidentBytes)/(1<<20), ac.ResidentClosures),
		single("catalog.evictions", "count", float64(ac.Evictions-bc.Evictions), 1),
		single("closure.delta_fallbacks", "count", float64(ac.PatchesRebuild-bc.PatchesRebuild), int(acked)),
		single("search.prune_ratio", "ratio", ratio(ds("phomd_search_prune_ratio"), dc("phomd_search_prune_ratio")), int(dc("phomd_search_prune_ratio"))),
		single("search.candidates_per_query", "count", ratio(ds("phomd_search_candidates"), dc("phomd_search_candidates")), int(dc("phomd_search_candidates"))),
		single("search.topk_mismatches", "count", float64(v.topkMismatches), len(v.sampled)),
		single("store.fsyncs_per_write", "ratio", ratio(dc("phomd_store_fsync_seconds"), acked), int(acked)),
		single("store.snapshot_ms", "ms", float64(snapshot.Microseconds())/1000, 1),
		single("store.snapshot_bytes", "B", float64(snapshotBytes), 1),
		single("store.lost_acked_writes", "count", float64(v.lostWrites), int(acked)),
		single("process.peak_rss_mb", "MB", rss, 1),
		overValues("process.boot_ready_ms", "ms", ready, 1),
		overValues("bench.gen_cpu_share", "ratio", genShare, int(n)),
		single("bench.round_spread", "ratio", ratio(wall.Max-wall.Min, wall.Value), rounds),
	}
	if o.trace {
		runtime.GOMAXPROCS(restore) // the in-process engine sizes its pool as phomd does
		p50m, _ := rep.find("p50_ms")
		layers, spans, checks, err := traceRun(o, w, p50m.Value)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		rep.PerLayer = append(rep.PerLayer, layers...)
		rep.Spans = spans
		if checks > 0 {
			v.checkFailures += checks
			rep.Failed += checks
			rep.Correct = false
			rep.Failures = append(rep.Failures, fmt.Sprintf("%d traced operations failed the certificate or disagreed between handler, engine and layers", checks))
		}
	}
	rep.PerLayer = append(rep.PerLayer,
		single("core.check_failures", "count", float64(v.checkFailures), v.attempted),
		single("bench.error_rate", "ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted))
	sort.Slice(rep.PerLayer, func(i, j int) bool { return rep.PerLayer[i].Name < rep.PerLayer[j].Name })
	return rep, nil
}
