package main

import (
	"encoding/json"
	"log"
	"os"
	"strings"

	"graphmatch/internal/cluster"
)

// runRouter is phomd's stateless mode: no engine, no store — just the
// consistent-hash ring and the scatter-gather front described in
// internal/cluster. The process serves the same /v1 route shapes as a
// shard, so clients point at the router without changes.
func runRouter(f *flags) {
	var cfg cluster.Config
	var err error
	if f.shards != "" {
		cfg, err = cluster.ParseSpec(f.shards, 0)
	} else {
		var data []byte
		if data, err = os.ReadFile(f.ringPath); err == nil {
			cfg, err = cluster.LoadConfig(data)
		}
	}
	if err != nil {
		log.Fatalf("phomd: %v", err)
	}

	rt, err := cluster.NewRouter(cfg, cluster.RouterOptions{
		MaxLag:         f.routeMaxLag,
		RequestTimeout: f.requestTimeout,
		AccessLog:      accessLogger(f.accessLog),
		NoTrace:        f.noTrace,
	})
	if err != nil {
		log.Fatalf("phomd: %v", err)
	}
	lc := listen(f.addr, f.pprofAddr, rt)

	ring := rt.Ring().Config()
	names := make([]string, 0, len(ring.Shards))
	for _, s := range ring.Shards {
		names = append(names, s.Name)
	}
	if b, err := json.Marshal(ring); err == nil {
		log.Printf("ring v%d: %d shards × %d vnodes (%s)", ring.Version, len(ring.Shards), ring.VNodes, b)
	}
	log.Printf("phomd router on %s fronting %s (route-max-lag %d, probe every %v)",
		lc.ln.Addr(), strings.Join(names, ", "), f.routeMaxLag, cluster.DefaultProbeInterval)
	lc.wait(rt.Close)
	log.Printf("phomd router stopped")
}
