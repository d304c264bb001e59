// The persistence example walks the durable-catalog lifecycle in one
// process: it opens a store-backed engine, registers web graphs,
// mutates one in place with live patches, restarts, and shows the
// replayed engine serving the same match and search results — the
// patched graph included — before compacting the WAL into a snapshot.
// Every mutation was fsynced before it was acknowledged, so the same
// replay holds after kill -9 (pinned by the engine's crash-recovery
// quickchecks, which reopen stores abandoned without Close).
//
//	go run ./examples/persistence
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"graphmatch"
	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/webgen"
)

func main() {
	dir, err := os.MkdirTemp("", "phom-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("store directory: %s\n\n", dir)

	// Open a durable engine: every mutation below is fsynced to the WAL
	// before it is acknowledged.
	eng, err := graphmatch.OpenEngine(graphmatch.EngineOptions{StorePath: dir})
	if err != nil {
		log.Fatal(err)
	}

	// Register two archived versions of a generated web site.
	ctx := context.Background()
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 150, Versions: 2, Seed: 7})
	for v, g := range arch.Versions {
		name := fmt.Sprintf("site/v%d", v)
		if err := eng.Register(ctx, name, g); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-8s %5d nodes %5d edges (WAL'd + fsynced)\n",
			name, g.NumNodes(), g.NumEdges())
	}

	// Mutate site/v1 in place: add a page, rewire a link, edit content.
	// The patch flows through the catalog — closure invalidated and
	// rebuilt, search index refreshed — and into the WAL.
	v1, _ := eng.Catalog().Resolve(ctx, "site/v1", 0, catalog.NeedGraph)
	n := v1.Graph.NumNodes()
	patched, err := eng.ApplyPatch(ctx, "site/v1", &graphmatch.GraphPatch{
		AddNodes:   []graph.Node{{Label: "page", Weight: 1, Content: "breaking: a brand new page appears"}},
		SetContent: []graphmatch.ContentUpdate{{Node: 0, Content: "the root page, rewritten in place"}},
		AddEdges:   [][2]graph.NodeID{{0, graph.NodeID(n)}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patched  site/v1  %5d nodes %5d edges (live, no re-register)\n\n",
		patched.NumNodes(), patched.NumEdges())

	// Record pre-crash results.
	pattern := webgen.TopKSkeleton(arch.Versions[0], 10)
	req := graphmatch.MatchRequest{
		Pattern: pattern, GraphName: "site/v1",
		Algo: graphmatch.AlgoMaxSim, Xi: 0.75, Sim: graphmatch.SimContent,
	}
	before := eng.Match(ctx, req)
	if before.Err != nil {
		log.Fatal(before.Err)
	}
	searchBefore := eng.Search(ctx, graphmatch.SearchRequest{
		Pattern: pattern, Algo: graphmatch.AlgoMaxSim, Xi: 0.75,
		Sim: graphmatch.SimKind("content"), K: 2,
	})
	fmt.Printf("pre-crash:  match qualSim=%.4f matched=%d; search top hit %q (%.4f)\n",
		before.QualSim, len(before.Mapping), searchBefore.Hits[0].Graph, searchBefore.Hits[0].Score)

	// Crash. The WAL already holds every acknowledged op fsynced, so
	// Close adds no durability here — it only drains workers and
	// releases the store's directory lock so this same process can
	// reopen it. (The crash-equivalence itself — reopen after a real
	// no-Close kill — is pinned by TestReplayEquivalenceQuickCheck.)
	eng.Close()
	fmt.Printf("\n-- restart --\n\n")

	start := time.Now()
	eng2, err := graphmatch.OpenEngine(graphmatch.EngineOptions{StorePath: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	st, _ := eng2.StoreStats()
	fmt.Printf("replayed %d graphs to seq %d in %v (closures rebuilt, search index warm)\n",
		eng2.Catalog().Len(), st.LastSeq, time.Since(start).Round(time.Millisecond))

	after := eng2.Match(ctx, req)
	if after.Err != nil {
		log.Fatal(after.Err)
	}
	searchAfter := eng2.Search(ctx, graphmatch.SearchRequest{
		Pattern: pattern, Algo: graphmatch.AlgoMaxSim, Xi: 0.75,
		Sim: graphmatch.SimKind("content"), K: 2,
	})
	fmt.Printf("post-crash: match qualSim=%.4f matched=%d; search top hit %q (%.4f)\n",
		after.QualSim, len(after.Mapping), searchAfter.Hits[0].Graph, searchAfter.Hits[0].Score)
	if before.QualSim != after.QualSim || len(before.Mapping) != len(after.Mapping) ||
		searchBefore.Hits[0].Graph != searchAfter.Hits[0].Graph {
		log.Fatal("replayed engine diverged from the pre-crash engine")
	}
	fmt.Printf("replayed results identical: true\n\n")

	// Compact: fold the WAL into one snapshot so the next boot replays
	// a single binary file instead of the op-by-op log.
	st, err = eng2.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot written at seq %d: %d live segment(s), %d bytes of WAL tail\n",
		st.SnapshotSeq, st.Segments, st.WALBytes)
}
