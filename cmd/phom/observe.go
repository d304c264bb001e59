package main

// The metrics and top verbs are the CLI side of phomd's observability:
//
//	phom metrics -addr http://localhost:8080 [-grep engine_]
//	phom top     -addr http://localhost:8080
//
// metrics dumps the raw Prometheus exposition (optionally filtered);
// top renders a one-screen operational summary — pool pressure, cache
// hit rate, shed counts, per-route request counts and p50/p99 latency
// — computed client-side from /metrics and /v1/stats. Both exit
// non-zero on transport failures and HTTP error responses, like every
// other phom verb.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"graphmatch/internal/metrics"
)

func runMetrics(args []string) {
	fs := flag.NewFlagSet("phom metrics", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "phomd base URL")
	grep := fs.String("grep", "", "print only lines containing this substring")
	_ = fs.Parse(args)

	body := getOrDie(*addr + "/metrics")
	if *grep == "" {
		os.Stdout.Write(body)
		return
	}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.Contains(line, *grep) {
			fmt.Println(line)
		}
	}
}

// statsWire mirrors the /v1/stats response shape (see httpapi).
type statsWire struct {
	Engine struct {
		Requests  uint64 `json:"requests"`
		Executed  uint64 `json:"executed"`
		Coalesced uint64 `json:"coalesced"`
		Errors    uint64 `json:"errors"`
		Shed      uint64 `json:"shed"`
		Pending   int64  `json:"pending"`
		Batches   uint64 `json:"batches"`
		Searches  uint64 `json:"searches"`
		Workers   int    `json:"workers"`
	} `json:"engine"`
	Catalog struct {
		Graphs           int     `json:"graphs"`
		ResidentClosures int     `json:"resident_closures"`
		ResidentBytes    int64   `json:"resident_bytes"`
		Hits             uint64  `json:"hits"`
		Misses           uint64  `json:"misses"`
		Evictions        uint64  `json:"evictions"`
		HitRate          float64 `json:"hit_rate"`
	} `json:"catalog"`
	Store *struct {
		LastSeq       uint64 `json:"last_seq"`
		Appended      uint64 `json:"appended"`
		SinceSnapshot int    `json:"since_snapshot"`
		Snapshots     uint64 `json:"snapshots"`
		Segments      int    `json:"segments"`
		WALBytes      int64  `json:"wal_bytes"`
	} `json:"store"`
}

func runTop(args []string) {
	fs := flag.NewFlagSet("phom top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "phomd base URL")
	_ = fs.Parse(args)

	var st statsWire
	if err := json.Unmarshal(getOrDie(*addr+"/v1/stats"), &st); err != nil {
		fatal(fmt.Errorf("decoding /v1/stats: %w", err))
	}
	fams, err := metrics.Parse(bytes.NewReader(getOrDie(*addr + "/metrics")))
	if err != nil {
		fatal(fmt.Errorf("parsing /metrics: %w", err))
	}

	e := st.Engine
	fmt.Printf("engine:  %d workers, pending %d (queue depth %s), executed %d / %d requests (%d coalesced, %d shed, %d errors)\n",
		e.Workers, e.Pending, gaugeStr(fams, "phomd_engine_queue_depth"),
		e.Executed, e.Requests, e.Coalesced, e.Shed, e.Errors)
	c := st.Catalog
	fmt.Printf("catalog: %d graphs, closure hit rate %.1f%% (%d hits, %d misses, %d evictions), %d resident, %s\n",
		c.Graphs, c.HitRate*100, c.Hits, c.Misses, c.Evictions,
		c.ResidentClosures, sizeStr(c.ResidentBytes))
	if s := st.Store; s != nil {
		fmt.Printf("store:   seq %d, %d appended (%d since snapshot), %d snapshots, %d segments, %s WAL\n",
			s.LastSeq, s.Appended, s.SinceSnapshot, s.Snapshots, s.Segments, sizeStr(s.WALBytes))
	}

	routes := routeTable(fams)
	if len(routes) == 0 {
		fmt.Println("\nno per-route samples yet (no requests served since start)")
	} else {
		fmt.Printf("\n%-28s %8s %8s %10s %10s\n", "route", "reqs", "errs", "p50", "p99")
		for _, r := range routes {
			fmt.Printf("%-28s %8d %8d %10s %10s\n",
				r.route, r.reqs, r.errs, durStr(r.p50), durStr(r.p99))
		}
	}
	printSlowTraces(*addr)
}

// printSlowTraces appends the flight recorder's slowest recent traces
// to the top view; skipped silently when the server runs -no-trace or
// predates /debug/traces.
func printSlowTraces(addr string) {
	resp, err := http.Get(addr + "/debug/traces")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	var list struct {
		Traces []struct {
			ID         string `json:"id"`
			Route      string `json:"route"`
			DurationUS int64  `json:"duration_us"`
			Dominant   string `json:"dominant"`
		} `json:"traces"`
	}
	if json.Unmarshal(body, &list) != nil || len(list.Traces) == 0 {
		return
	}
	sort.SliceStable(list.Traces, func(i, j int) bool {
		return list.Traces[i].DurationUS > list.Traces[j].DurationUS
	})
	n := len(list.Traces)
	if n > 5 {
		n = 5
	}
	fmt.Printf("\nslowest recent traces (phom trace <id> for the span tree):\n")
	fmt.Printf("%-32s  %-26s %10s  %s\n", "trace_id", "route", "dur", "dominant")
	for _, t := range list.Traces[:n] {
		fmt.Printf("%-32s  %-26s %10s  %s\n",
			t.ID, t.Route, durStr(float64(t.DurationUS)/1e6), t.Dominant)
	}
}

type routeRow struct {
	route    string
	reqs     uint64
	errs     uint64
	p50, p99 float64
}

// routeTable folds the per-route counter and latency families into
// display rows. Quantiles use the same linear interpolation Prometheus
// applies to histogram_quantile.
func routeTable(fams map[string]*metrics.Family) []routeRow {
	byRoute := map[string]*routeRow{}
	if f := fams["phomd_http_requests_total"]; f != nil {
		for _, s := range f.Samples {
			route := s.Labels["route"]
			if route == "" {
				continue
			}
			row := byRoute[route]
			if row == nil {
				row = &routeRow{route: route}
				byRoute[route] = row
			}
			row.reqs += uint64(s.Value)
			if code := s.Labels["code"]; len(code) > 0 && code[0] != '2' {
				row.errs += uint64(s.Value)
			}
		}
	}
	if f := fams["phomd_http_request_seconds"]; f != nil {
		buckets := map[string][]metrics.Sample{}
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") {
				route := s.Labels["route"]
				buckets[route] = append(buckets[route], s)
			}
		}
		for route, bs := range buckets {
			row := byRoute[route]
			if row == nil {
				row = &routeRow{route: route}
				byRoute[route] = row
			}
			row.p50 = metrics.HistogramQuantile(0.50, bs)
			row.p99 = metrics.HistogramQuantile(0.99, bs)
		}
	}
	rows := make([]routeRow, 0, len(byRoute))
	for _, r := range byRoute {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].route < rows[j].route })
	return rows
}

func gaugeStr(fams map[string]*metrics.Family, name string) string {
	if f := fams[name]; f != nil && len(f.Samples) > 0 {
		return fmt.Sprintf("%.0f", f.Samples[0].Value)
	}
	return "?"
}

func durStr(seconds float64) string {
	switch {
	case seconds != seconds: // NaN: no observations
		return "-"
	case seconds < 1e-3:
		return fmt.Sprintf("%.0fµs", seconds*1e6)
	case seconds < 1:
		return fmt.Sprintf("%.1fms", seconds*1e3)
	default:
		return fmt.Sprintf("%.2fs", seconds)
	}
}

func sizeStr(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// getOrDie GETs a URL and returns the body; transport failures and
// non-2xx statuses are fatal with a non-zero exit, mirroring postOrDie.
func getOrDie(url string) []byte {
	resp, err := http.Get(url)
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
