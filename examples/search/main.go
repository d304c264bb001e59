// Catalog-wide graph search — the paper's Web-mirror question asked
// over a fleet of graphs at once.
//
// Exp-1 matches one pattern against one candidate graph at a time.
// A serving system holds many graphs — say, archived versions of many
// Web sites — and the natural query is a search: "here is a site
// skeleton; which of my registered graphs is it?". This example
// registers three sites' archives (store, organization, newspaper;
// several versions each) with the serving engine and runs one search
// per site skeleton. Stage 1 prunes the catalog with the shingle
// prefilter — versions of the other sites share almost no page text
// with the pattern, so they never reach the matcher — and stage 2
// ranks the survivors by p-hom match quality.
//
// The same search is one HTTP call against phomd:
//
//	curl -X POST localhost:8080/v1/search \
//	     -d '{"pattern": {...}, "algo": "maxsim", "xi": 0.75,
//	          "sim": "content", "k": 5, "min_resemblance": 0.1}'
//
// Run with:
//
//	go run ./examples/search
package main

import (
	"context"
	"fmt"
	"log"

	"graphmatch"
	"graphmatch/internal/webgen"
)

func main() {
	const versions = 6

	eng := graphmatch.NewEngine(graphmatch.EngineOptions{})
	defer eng.Close()

	// Three sites, each archived over several versions — 18 registered
	// graphs in all. Real catalogs hold hundreds; the engine's
	// TestSearchPrunesWebFleet searches 110.
	ctx := context.Background()
	sites := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	patterns := make([]*graphmatch.Graph, len(sites))
	for i, cat := range sites {
		arch := webgen.Generate(webgen.Config{
			Category: cat,
			Pages:    400,
			Versions: versions,
			Seed:     int64(10 + i),
		})
		for v, g := range arch.Versions {
			name := fmt.Sprintf("%s/v%d", cat, v)
			if err := eng.Register(ctx, name, g); err != nil {
				log.Fatal(err)
			}
		}
		// The query: the oldest version's hub skeleton, as in Exp-1.
		patterns[i] = webgen.TopKSkeleton(arch.Versions[0], 10)
	}

	for i, cat := range sites {
		res := eng.Search(ctx, graphmatch.SearchRequest{
			Pattern:        patterns[i],
			Algo:           graphmatch.AlgoMaxSim,
			Xi:             0.75,
			Sim:            graphmatch.SimContent,
			K:              5,
			MinResemblance: 0.1,
		})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		st := res.Stats
		fmt.Printf("query: %s skeleton (%d nodes) — %d graphs, %d pruned by the prefilter (%.0f%%), %d matched, %d skipped by bound\n",
			cat, patterns[i].NumNodes(), st.Graphs, st.Pruned, st.PruneRate*100, st.Matched, st.Skipped)
		for rank, h := range res.Hits {
			fmt.Printf("  #%d  %-16s qualSim %.3f  (containment %.2f)\n",
				rank+1, h.Graph, h.QualSim, h.Containment)
		}
		fmt.Println()
	}

	fmt.Println("Every ranking leads with the queried site's own versions:")
	fmt.Println("the prefilter skipped the other sites without ever running")
	fmt.Println("the matcher on them, and the p-hom qualities ordered the")
	fmt.Println("site's versions newest-drift last — Exp-1 as one search.")
}
