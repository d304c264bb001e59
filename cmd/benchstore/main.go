// Command benchstore measures the durability subsystem against the
// restart story it replaces: it builds the 110-mirror webgen catalog
// (10 sites × 11 archived versions, the benchsearch fleet), persists
// it three ways, and times how long a phomd restart takes to be ready
// to serve on each path:
//
//   - cold: no store — graphs reloaded from JSON files and re-registered
//     (the pre-durability baseline: phomd -load on every boot);
//   - wal: store with no snapshot — op-by-op WAL replay;
//   - snapshot: store after compaction — one binary snapshot + WAL tail.
//
// All three include closure builds (identical work), so the measured
// difference is the decode path: the binary snapshot codec versus
// encoding/json. benchstore emits BENCH_store.json and fails when the
// snapshot+WAL replay does not beat the cold path.
//
//	benchstore -out BENCH_store.json          # full run
//	benchstore -short -out BENCH_store.json   # CI-sized (smaller sites)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphmatch/internal/engine"
	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

// named pairs a registered name with its graph.
type named struct {
	name string
	g    *graph.Graph
}

// report is the BENCH_store.json schema.
type report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Graphs     int    `json:"graphs"`
	Sites      int    `json:"sites"`
	Versions   int    `json:"versions"`
	Pages      int    `json:"pages_per_site"`
	Patches    int    `json:"patches"`
	// RegisterSec is the one-time cost of building the catalog in the
	// durable engine (WAL appends + fsyncs included).
	RegisterSec float64 `json:"register_sec"`
	// SnapshotSec is the one-time compaction cost.
	SnapshotSec float64 `json:"snapshot_sec"`
	// ColdBootSec reloads every graph from JSON and re-registers it.
	ColdBootSec float64 `json:"cold_boot_sec"`
	// WALBootSec replays the uncompacted WAL.
	WALBootSec float64 `json:"wal_boot_sec"`
	// SnapshotBootSec replays the compacted snapshot + WAL tail.
	SnapshotBootSec float64 `json:"snapshot_boot_sec"`
	// JSONBytes / WALBytes / SnapshotBytes compare the at-rest formats.
	JSONBytes     int64 `json:"json_bytes"`
	WALBytes      int64 `json:"wal_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// SpeedupVsCold is ColdBootSec / SnapshotBootSec.
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
}

func main() {
	out := flag.String("out", "BENCH_store.json", "output path")
	sites := flag.Int("sites", 10, "distinct web sites")
	versions := flag.Int("versions", 11, "archived versions per site (sites × versions = catalog size)")
	pages := flag.Int("pages", 300, "pages per site version")
	patches := flag.Int("patches", 50, "live patches applied after registration (exercises WAL patch records)")
	short := flag.Bool("short", false, "CI-sized run: smaller sites, same catalog size")
	flag.Parse()
	if *short {
		*pages = 120
	}

	work, err := os.MkdirTemp("", "benchstore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)
	jsonDir := filepath.Join(work, "json")
	walDir := filepath.Join(work, "wal")   // WAL only, never compacted
	snapDir := filepath.Join(work, "snap") // compacted before the timed boot
	for _, d := range []string{jsonDir, walDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// Generate the fleet once and write the JSON files the cold path
	// will reload.
	categories := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	var fleet []named
	var jsonBytes int64
	for s := 0; s < *sites; s++ {
		arch := webgen.Generate(webgen.Config{
			Category: categories[s%len(categories)],
			Pages:    *pages,
			Versions: *versions,
			Seed:     int64(1000 + s),
		})
		for v, g := range arch.Versions {
			name := fmt.Sprintf("site%02d/v%02d", s, v)
			fleet = append(fleet, named{name, g})
			path := filepath.Join(jsonDir, fmt.Sprintf("s%02dv%02d.json", s, v))
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := g.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fi, _ := os.Stat(path)
			jsonBytes += fi.Size()
		}
	}
	log.Printf("fleet: %d graphs (%d sites × %d versions, %d pages), %.1f MB of JSON",
		len(fleet), *sites, *versions, *pages, float64(jsonBytes)/(1<<20))

	// Build the durable catalogs: one WAL-only, one compacted. The
	// registration timing is reported for the snapshot store (both do
	// identical work).
	regSec, snapSec := buildStore(snapDir, fleet, *patches, true)
	buildStore(walDir, fleet, *patches, false)

	rep := report{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Graphs:      len(fleet),
		Sites:       *sites,
		Versions:    *versions,
		Pages:       *pages,
		Patches:     *patches,
		RegisterSec: regSec,
		SnapshotSec: snapSec,
		JSONBytes:   jsonBytes,
	}
	rep.WALBytes = dirBytes(walDir)
	rep.SnapshotBytes = dirBytes(snapDir)

	// Timed boots. Each returns a ready-to-serve engine (closures built,
	// catalog warm); the engine is closed untimed.
	rep.ColdBootSec = timeBoot("cold (JSON reload)", func() *engine.Engine {
		eng := engine.New(engine.Options{MaxClosures: len(fleet) + 8})
		files, err := filepath.Glob(filepath.Join(jsonDir, "*.json"))
		if err != nil {
			log.Fatal(err)
		}
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			g, err := graph.ReadJSON(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			base := filepath.Base(path)
			name := fmt.Sprintf("site%s/v%s", base[1:3], base[4:6])
			if err := eng.Register(context.Background(), name, g); err != nil {
				log.Fatal(err)
			}
		}
		return eng
	})
	rep.WALBootSec = timeBoot("wal replay", func() *engine.Engine {
		eng, err := engine.Open(engine.Options{MaxClosures: len(fleet) + 8, StorePath: walDir})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	})
	rep.SnapshotBootSec = timeBoot("snapshot replay", func() *engine.Engine {
		eng, err := engine.Open(engine.Options{MaxClosures: len(fleet) + 8, StorePath: snapDir})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	})
	if rep.SnapshotBootSec > 0 {
		rep.SpeedupVsCold = rep.ColdBootSec / rep.SnapshotBootSec
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	encoder := json.NewEncoder(f)
	encoder.SetIndent("", "  ")
	if err := encoder.Encode(rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d graphs: cold %.2fs, wal %.2fs, snapshot %.2fs (%.1f× vs cold) → %s",
		rep.Graphs, rep.ColdBootSec, rep.WALBootSec, rep.SnapshotBootSec, rep.SpeedupVsCold, *out)
	if rep.SnapshotBootSec >= rep.ColdBootSec {
		log.Fatalf("snapshot+WAL replay (%.2fs) did not beat cold re-registration (%.2fs)",
			rep.SnapshotBootSec, rep.ColdBootSec)
	}
}

// buildStore registers the fleet into a store-backed engine, applies
// a burst of live patches, and optionally compacts before closing. It
// returns the registration and snapshot wall times.
func buildStore(dir string, fleet []named, patches int, compact bool) (regSec, snapSec float64) {
	eng, err := engine.Open(engine.Options{MaxClosures: len(fleet) + 8, StorePath: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	start := time.Now()
	for _, nd := range fleet {
		// The engine takes ownership; clone so the generator's graphs
		// stay reusable for the other store.
		if err := eng.Register(context.Background(), nd.name, nd.g.Clone()); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < patches; i++ {
		nd := fleet[i%len(fleet)]
		// Each earlier round already grew this graph by one node; the
		// fresh node's ID is the engine copy's current count, not the
		// pristine fleet graph's.
		grown := i / len(fleet)
		if _, err := eng.ApplyPatch(context.Background(), nd.name, &graph.Patch{
			AddNodes: []graph.Node{{Label: "patched", Weight: 1,
				Content: fmt.Sprintf("live patch %d applied during the burn-in burst", i)}},
			AddEdges: [][2]graph.NodeID{{0, graph.NodeID(nd.g.NumNodes() + grown)}},
		}); err != nil {
			log.Fatal(err)
		}
	}
	regSec = time.Since(start).Seconds()
	if compact {
		start = time.Now()
		if _, err := eng.Snapshot(); err != nil {
			log.Fatal(err)
		}
		snapSec = time.Since(start).Seconds()
	}
	return regSec, snapSec
}

// timeBoot measures fn until the returned engine is ready to serve.
func timeBoot(label string, fn func() *engine.Engine) float64 {
	start := time.Now()
	eng := fn()
	sec := time.Since(start).Seconds()
	if eng.Catalog().Len() == 0 {
		log.Fatalf("%s: booted an empty catalog", label)
	}
	eng.Close()
	log.Printf("%-22s %.3fs (%d graphs)", label, sec, eng.Catalog().Len())
	return sec
}

// dirBytes sums the file sizes under dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}
