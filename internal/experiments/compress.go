package experiments

import (
	"context"
	"sort"
	"strings"

	"graphmatch/internal/closure"
	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// This file holds the Appendix B compression of G2+ that the
// compress-g2 ablation measures: every SCC of G2 is a clique in the
// closure, so it can collapse into one bag-labelled node with a
// self-loop (graph G2* of Fig. 10(b)). Matching runs against the much
// smaller G2* and lifts back. No server path runs it.

// Compressed is the Appendix B representation G2* of a closure graph G2+:
// every SCC of G2 (a clique in G2+) collapses to a single node labelled
// with the bag of member labels and carrying a self-loop when the clique is
// nonempty. The paper observes that matching against G2* preserves (1-1)
// p-hom mappings and their quality while shrinking the graph.
type Compressed struct {
	// Star is the compressed graph: one node per SCC of the original G2,
	// with an edge c → t whenever some member of c reaches some member
	// of t by a nonempty path. Node labels are "a|b|c"-style sorted bags
	// of member labels.
	Star *graph.Graph
	// Comp maps original node → compressed node.
	Comp []int
	// Members lists original nodes per compressed node.
	Members [][]graph.NodeID
}

// Compress builds the Appendix B compressed closure G2* of g. Members of
// one SCC share their closure row, so probing one member per component
// reads every edge of G2*.
func Compress(g *graph.Graph) *Compressed {
	scc := g.SCC()
	reach := closure.Compute(g)
	k := scc.NumComponents()
	star := graph.New(k)
	for c := 0; c < k; c++ {
		labels := make([]string, 0, len(scc.Members[c]))
		for _, v := range scc.Members[c] {
			labels = append(labels, g.Label(v))
		}
		sort.Strings(labels)
		star.AddNode(strings.Join(labels, "|"))
	}
	for c := 0; c < k; c++ {
		for t := 0; t < k; t++ {
			if reach.Reachable(scc.Members[c][0], scc.Members[t][0]) {
				star.AddEdge(graph.NodeID(c), graph.NodeID(t))
			}
		}
	}
	star.Finish()
	return &Compressed{Star: star, Comp: scc.Comp, Members: scc.Members}
}

// componentMatrix scores a pattern node against a compressed component as
// the best score over the component's members.
type componentMatrix struct {
	base    simmatrix.Matrix
	members [][]graph.NodeID
}

func (cm componentMatrix) Score(v, c graph.NodeID) float64 {
	best := 0.0
	for _, u := range cm.members[c] {
		if s := cm.base.Score(v, u); s > best {
			best = s
		}
	}
	return best
}

// CompressedMaxCard runs compMaxCard against the compressed closure G2*
// (Appendix B, Fig. 10(b)) and lifts the component-level mapping back to
// concrete G2 nodes. Because G2* is transitively closed, no further
// closure computation is needed; the lift picks, for every matched pattern
// node, the best-scoring member of its component. p-hom only — bags absorb
// arbitrarily many pattern nodes, which a 1-1 mapping would need capacity
// accounting for.
func CompressedMaxCard(in *core.Instance) core.Mapping {
	comp := Compress(in.G2)
	sub := core.NewInstance(in.G1, comp.Star, componentMatrix{base: in.Mat, members: comp.Members}, in.Xi)
	m, _ := sub.CompMaxCardCtx(context.Background()) // never cancelled, so no error
	lifted := make(core.Mapping, len(m))
	for v, c := range m {
		best, bestScore := graph.Invalid, -1.0
		for _, u := range comp.Members[c] {
			if s := in.Mat.Score(v, u); s >= in.Xi && s > bestScore {
				bestScore, best = s, u
			}
		}
		if best != graph.Invalid {
			lifted[v] = best
		}
	}
	return lifted
}
