package syngen

import (
	"fmt"
	"math/rand"

	"graphmatch/internal/graph"
)

// Large-graph generator for the serving-scale workloads the paper's
// Section 6 generator cannot reach: its noise model derives each G2
// from a pattern, which caps realistic sizes at a few thousand nodes.
// GenerateLarge instead grows a standalone data graph with the
// "bow-tie" shape production webgraphs take — one large strongly
// connected core, an IN tendril of source-only nodes feeding it, an
// OUT tendril of sink-only nodes fed by it, and power-law in-degrees
// via preferential attachment.
//
// That shape matters beyond realism: the reachability index stores the
// closure SCC-condensed, O(k²) bits in the number of
// components k. Here the core is provably one SCC (it is ring-wired)
// and every tendril node is provably a singleton (IN nodes receive no
// edges, OUT nodes emit none), so k = (1 − CoreFraction)·Nodes + 1
// exactly — small enough that the sparse closure fits in megabytes
// where dense per-node rows would need gigabytes.
// GenerateLarge is how datagen, the benchmark's deep_match and
// mutate_read workloads and the catalog's patch-storm test exercise
// that regime end to end.

// LargeConfig parameterises GenerateLarge. Zero values select
// defaults.
type LargeConfig struct {
	// Nodes is the graph size (default 100000).
	Nodes int
	// AvgDeg is the average out-degree of the attachment edges
	// (default 5).
	AvgDeg int
	// Labels is the size of the label universe; labels are drawn
	// uniformly, so each carries ≈ Nodes/Labels candidates for a
	// label-equality match (default 2000).
	Labels int
	// CoreFraction is the fraction of nodes wired into the strongly
	// connected core (default 0.9). The SCC condensation then has
	// roughly (1−CoreFraction)·Nodes + 1 components, the k that sizes
	// the sparse closure.
	CoreFraction float64
	// Seed drives all randomness; equal configs generate equal graphs.
	Seed int64
}

func (c LargeConfig) withDefaults() LargeConfig {
	if c.Nodes <= 0 {
		c.Nodes = 100000
	}
	if c.AvgDeg <= 0 {
		c.AvgDeg = 5
	}
	if c.Labels <= 0 {
		c.Labels = 2000
	}
	if c.CoreFraction <= 0 || c.CoreFraction > 1 {
		c.CoreFraction = 0.9
	}
	return c
}

// GenerateLarge builds one power-law data graph from cfg.
func GenerateLarge(cfg LargeConfig) *graph.Graph {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes

	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("l%d", rng.Intn(cfg.Labels)))
	}

	// The strongly connected core: a random subset wired into one cycle,
	// so its members provably share one SCC whatever the attachment
	// edges do. Membership is a random permutation prefix — core and
	// tendril nodes are scattered across the ID space, leaking nothing
	// to ID-ordered candidate picks. The remaining nodes split into the
	// IN tendril (only ever edge sources) and the OUT tendril (only
	// ever edge targets), so each is a singleton SCC by construction.
	coreSize := int(cfg.CoreFraction * float64(n))
	if coreSize > n {
		coreSize = n
	}
	perm := rng.Perm(n)
	core := perm[:coreSize]
	fringe := perm[coreSize:]
	inT := fringe[:len(fringe)/2]
	outT := fringe[len(fringe)/2:]
	sources := append(append([]int(nil), core...), inT...)
	uniformTargets := append(append([]int(nil), core...), outT...)
	for i, v := range core {
		g.AddEdge(graph.NodeID(v), graph.NodeID(core[(i+1)%len(core)]))
	}

	// Preferential attachment: targets are re-drawn from earlier
	// targets with probability ¾ (mass proportional to current
	// in-degree — the classic repeated-endpoint trick) and uniformly
	// from the permissible targets otherwise, yielding a power-law
	// in-degree tail over a uniform floor. Sources are uniform over the
	// permissible sources.
	targets := make([]graph.NodeID, 0, n*cfg.AvgDeg+coreSize)
	for _, v := range core {
		targets = append(targets, graph.NodeID(v))
	}
	for i := 0; len(sources) > 0 && len(uniformTargets) > 0 && i < n*cfg.AvgDeg; i++ {
		from := graph.NodeID(sources[rng.Intn(len(sources))])
		var to graph.NodeID
		if len(targets) > 0 && rng.Intn(4) > 0 {
			to = targets[rng.Intn(len(targets))]
		} else {
			to = graph.NodeID(uniformTargets[rng.Intn(len(uniformTargets))])
		}
		g.AddEdge(from, to)
		targets = append(targets, to)
	}
	g.Finish()
	return g
}

// CarvePattern samples a connected-ish pattern of the given size from a
// data graph by random node selection, preferring neighbours of nodes
// already chosen so the induced subgraph carries edges to match
// against. It is the pattern-side companion of GenerateLarge for
// benchmarks and smoke tests; ground-truth embeddings (the Section 6
// workloads' Truth) do not apply here.
func CarvePattern(g *graph.Graph, size int, seed int64) *graph.Graph {
	n := g.NumNodes()
	if size > n {
		size = n
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.NodeID]bool, size)
	keep := make([]graph.NodeID, 0, size)
	frontier := make([]graph.NodeID, 0, 4*size)
	add := func(v graph.NodeID) {
		if !seen[v] {
			seen[v] = true
			keep = append(keep, v)
			frontier = append(frontier, g.Post(v)...)
		}
	}
	for len(keep) < size {
		if len(frontier) > 0 && rng.Intn(3) > 0 {
			i := rng.Intn(len(frontier))
			v := frontier[i]
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			add(v)
			continue
		}
		add(graph.NodeID(rng.Intn(n)))
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}
