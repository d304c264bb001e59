package core

import (
	"context"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// This file implements the Appendix B partitioning of G1: nodes with no admissible candidate can never join a
// mapping, so they are removed; the remainder may fall apart into
// disconnected components, and by Proposition 1 the union of per-component
// maximum p-hom mappings is a maximum p-hom mapping for the whole graph.
// Components shrink n, and since the guarantee log²n/n degrades as n grows
// (beyond e²), partitioning improves both running time and match quality.
// The proposition relies on mappings of disjoint components being freely
// combinable, which fails for 1-1 mappings (two components might claim the
// same data node), so partitioning is p-hom only.

// remapMatrix presents a similarity matrix for an induced subgraph of G1
// whose node IDs were renumbered.
type remapMatrix struct {
	base simmatrix.Matrix
	orig []graph.NodeID // new ID in the subgraph → original ID in G1
}

func (r remapMatrix) Score(v, u graph.NodeID) float64 {
	return r.base.Score(r.orig[v], u)
}

// partitionComponents removes unmatchable G1 nodes and returns the
// connected components of the remaining induced subgraph, each as its own
// sub-instance sharing this instance's G2, closure and candidate lists.
func (in *Instance) partitionComponents() []struct {
	sub  *Instance
	orig []graph.NodeID
} {
	reach := in.Reach()
	idx := in.Index()
	cands := in.candidates()
	var keep []graph.NodeID
	for v, row := range cands {
		if len(row) > 0 {
			keep = append(keep, graph.NodeID(v))
		}
	}
	pruned, prunedOrig := in.G1.InducedSubgraph(keep)
	var out []struct {
		sub  *Instance
		orig []graph.NodeID
	}
	for _, comp := range pruned.ConnectedComponents() {
		sub, subOrig := pruned.InducedSubgraph(comp)
		orig := make([]graph.NodeID, len(subOrig))
		// An induced subgraph keeps self-loops, so a node's candidates
		// carry over unchanged under its new ID.
		subCands := make([][]simmatrix.Scored, len(subOrig))
		for i, p := range subOrig {
			orig[i] = prunedOrig[p]
			subCands[i] = cands[orig[i]]
		}
		out = append(out, struct {
			sub  *Instance
			orig []graph.NodeID
		}{
			sub: &Instance{
				G1: sub, G2: in.G2, Mat: remapMatrix{base: in.Mat, orig: orig}, Xi: in.Xi,
				reach: reach, idx: idx, cands: subCands,
			},
			orig: orig,
		})
	}
	return out
}

// bestCandidate returns the admissible u with maximal mat(v, u), the
// earliest among equals, or Invalid when none exists.
func (in *Instance) bestCandidate(v graph.NodeID) graph.NodeID {
	best, bestScore := graph.Invalid, -1.0
	for _, c := range in.candidates()[v] {
		if c.Score > bestScore {
			bestScore, best = c.Score, c.U
		}
	}
	return best
}

// PartitionedMaxCard runs compMaxCard independently per connected
// component of the pruned pattern (Appendix B) and unions the results.
// Singleton components take their best candidate directly.
func (in *Instance) PartitionedMaxCard() Mapping {
	result := Mapping{}
	for _, part := range in.partitionComponents() {
		if part.sub.G1.NumNodes() == 1 {
			orig := part.orig[0]
			if u := in.bestCandidate(orig); u != graph.Invalid {
				result[orig] = u
			}
			continue
		}
		sub, _ := part.sub.CompMaxCardCtx(context.Background()) // never cancelled, so no error
		for v, u := range sub {
			result[part.orig[v]] = u
		}
	}
	return result
}
