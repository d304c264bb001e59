//go:build !race

package simmatrix

import (
	"testing"

	"graphmatch/internal/webgen"
)

// TestNewContentIndexAllocations: building a graph version's content
// index allocates a fixed number of arrays, however many pages it
// shingles. Excluded under -race, where the detector's instrumentation
// perturbs allocation accounting.
func TestNewContentIndexAllocations(t *testing.T) {
	var counts []float64
	for _, pages := range []int{60, 600} {
		g := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: pages, Versions: 1, Seed: 7}).Versions[0]
		counts = append(counts, testing.AllocsPerRun(20, func() { indexSink = NewContentIndex(g, 0) }))
		t.Logf("%d nodes: %.0f allocations", g.NumNodes(), counts[len(counts)-1])
	}
	if counts[0] != counts[1] || counts[0] > 10 {
		t.Fatalf("NewContentIndex allocates %v times on the 60- and 600-page versions, want one constant ≤ 10", counts)
	}
}

// TestNewContentPatternAllocations: preparing a search pattern allocates
// a fixed number of arrays, however many nodes it shingles — the map
// preparation it replaced allocated 38 times at 8 nodes and 246 at 60.
func TestNewContentPatternAllocations(t *testing.T) {
	site := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 1, Seed: 7}).Versions[0]
	var counts []float64
	for _, nodes := range []int{8, 60} {
		g := webgen.TopKSkeleton(site, nodes)
		counts = append(counts, testing.AllocsPerRun(20, func() { patternSink = NewContentPattern(g, 0) }))
		t.Logf("%d nodes: %.0f allocations", g.NumNodes(), counts[len(counts)-1])
	}
	if counts[0] != counts[1] || counts[0] > 10 {
		t.Fatalf("NewContentPattern allocates %v times on the 8- and 60-node skeletons, want one constant ≤ 10", counts)
	}
}
