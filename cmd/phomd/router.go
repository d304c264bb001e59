package main

import (
	"encoding/json"
	"log"
	"os"
	"strings"
	"time"

	"graphmatch/internal/cluster"
)

// routerFlags carries the -router mode's flag values out of main.
type routerFlags struct {
	addr          string
	shards        string
	ringPath      string
	vnodes        int
	routeMaxLag   uint64
	probeInterval time.Duration
	timeout       time.Duration
	accessLog     bool
	noTrace       bool
	traceCapacity int
	traceSlow     time.Duration
	pprof         string
}

// runRouter is phomd's stateless mode: no engine, no store — just the
// consistent-hash ring and the scatter-gather front described in
// internal/cluster. The process serves the same /v1 route shapes as a
// shard, so clients point at the router without changes.
func runRouter(f routerFlags) {
	var cfg cluster.Config
	var err error
	switch {
	case f.shards != "" && f.ringPath != "":
		log.Fatalf("phomd: -shards and -ring are mutually exclusive")
	case f.shards != "":
		cfg, err = cluster.ParseSpec(f.shards, f.vnodes)
	case f.ringPath != "":
		var data []byte
		if data, err = os.ReadFile(f.ringPath); err == nil {
			cfg, err = cluster.LoadConfig(data)
			if f.vnodes > 0 {
				cfg.VNodes = f.vnodes
			}
		}
	default:
		log.Fatalf("phomd: -router needs -shards <spec> or -ring <config.json>")
	}
	if err != nil {
		log.Fatalf("phomd: %v", err)
	}

	var lg *log.Logger
	if f.accessLog {
		lg = log.New(os.Stderr, "access ", log.LstdFlags|log.Lmicroseconds)
	}
	rt, err := cluster.NewRouter(cfg, cluster.RouterOptions{
		MaxLag:             f.routeMaxLag,
		ProbeInterval:      f.probeInterval,
		RequestTimeout:     f.timeout,
		AccessLog:          lg,
		NoTrace:            f.noTrace,
		TraceCapacity:      f.traceCapacity,
		TraceSlowThreshold: f.traceSlow,
	})
	if err != nil {
		log.Fatalf("phomd: %v", err)
	}
	lc := listen(f.addr, f.pprof, rt)

	ring := rt.Ring().Config()
	names := make([]string, 0, len(ring.Shards))
	for _, s := range ring.Shards {
		names = append(names, s.Name)
	}
	if b, err := json.Marshal(ring); err == nil {
		log.Printf("ring v%d: %d shards × %d vnodes (%s)", ring.Version, len(ring.Shards), ring.VNodes, b)
	}
	probeEvery := f.probeInterval
	if probeEvery <= 0 {
		probeEvery = cluster.DefaultProbeInterval
	}
	log.Printf("phomd router on %s fronting %s (route-max-lag %d, probe every %v)",
		lc.ln.Addr(), strings.Join(names, ", "), f.routeMaxLag, probeEvery)
	lc.wait(rt.Close)
	log.Printf("phomd router stopped")
}
