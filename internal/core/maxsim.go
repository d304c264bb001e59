package core

import (
	"math"
	"sort"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// This file implements compMaxSim and compMaxSim1−1 (Section 5,
// "Approximation algorithms for SPH and SPH1−1"). The algorithms borrow
// Halldórsson's weighted-independent-set trick [16]: candidate pairs
// lighter than W/(n1·n2) are dropped (W being the heaviest pair), the rest
// are partitioned into ⌈log₂(n1·n2)⌉ weight buckets [W/2^i, W/2^(i-1)),
// compMaxCard's machinery runs on each bucket's induced matching list, and
// the mapping with the best qualSim wins. Each pair's weight is
// w(v)·mat(v, σ(v)) — the summand of the qualSim numerator.

// simBuckets partitions the admissible pairs of the initial matching list
// into weight buckets. Bucket i holds pairs with weight in
// (W/2^(i+1), W/2^i]; pairs below the W/(n1·n2) floor are discarded.
func (mx *matcher) simBuckets(h *matchList) []*matchList {
	in := mx.in
	// each visits the pairs of h in list order, ascending u within a node.
	each := func(visit func(v, u graph.NodeID, w float64)) {
		for _, v := range h.nodes {
			wv := in.G1.Weight(v)
			for _, c := range mx.cands[v] {
				if h.good[v].Contains(int(c.U)) {
					visit(v, c.U, wv*c.Score)
				}
			}
		}
	}
	maxW := 0.0
	each(func(_, _ graph.NodeID, w float64) {
		if w > maxW {
			maxW = w
		}
	})
	if maxW <= 0 {
		return nil
	}
	n := in.G1.NumNodes() * in.G2.NumNodes()
	if n < 2 {
		n = 2
	}
	floor := maxW / float64(n)
	nb := int(math.Ceil(math.Log2(float64(n)))) + 1
	buckets := make([]*matchList, nb)
	each(func(v, u graph.NodeID, w float64) {
		if w < floor || w <= 0 {
			return
		}
		i := 0
		if w < maxW {
			i = int(math.Floor(math.Log2(maxW / w)))
		}
		if i >= nb {
			i = nb - 1
		}
		if buckets[i] == nil {
			buckets[i] = newMatchList(mx.n1)
		}
		b := buckets[i]
		if b.good[v] == nil {
			b.add(v, bitset.New(mx.n2))
		}
		b.good[v].Add(int(u))
	})
	out := buckets[:0]
	for _, b := range buckets {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// runSim evaluates the bucket runs plus one run over the full list, greedily
// augments each candidate mapping, and returns the mapping with the highest
// qualSim. Both additions are conservative: an extra candidate mapping and a
// pass that only ever adds weight can only raise the max, so the
// O(log²(n1·n2)/(n1·n2)) guarantee of the bucket scheme is preserved.
func (mx *matcher) runSim(h *matchList) Mapping {
	in := mx.in
	best := Mapping{}
	bestQ := -1.0
	consider := func(m Mapping) {
		m = mx.augment(m)
		if q := in.QualSim(m); q > bestQ {
			bestQ = q
			best = m
		}
	}
	for _, b := range mx.simBuckets(h) {
		consider(mx.run(b))
	}
	consider(mx.run(h))
	return best
}

// augment extends a valid mapping with additional admissible pairs in
// descending weight order, keeping the edge-to-path and (if configured)
// injectivity constraints intact. The bucket partition deliberately keeps
// weights homogeneous within a run, so a bucket winner often leaves
// compatible heavy/light pairs from other buckets on the table; picking
// them up never decreases qualSim.
func (mx *matcher) augment(m Mapping) Mapping {
	in := mx.in
	reach := in.Reach()
	out := m.Clone()
	used := make(map[graph.NodeID]bool, len(out))
	for _, u := range out {
		used[u] = true
	}
	type cand struct {
		v, u graph.NodeID
		w    float64
	}
	var cands []cand
	for v, row := range mx.cands {
		mx.poll()
		vv := graph.NodeID(v)
		if _, ok := out[vv]; ok {
			continue
		}
		wv := in.G1.Weight(vv)
		for _, c := range row {
			cands = append(cands, cand{v: vv, u: c.U, w: wv * c.Score})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].v != cands[j].v {
			return cands[i].v < cands[j].v
		}
		return cands[i].u < cands[j].u
	})
	for _, c := range cands {
		if _, ok := out[c.v]; ok {
			continue
		}
		if mx.injective && used[c.u] {
			continue
		}
		ok := true
		for _, v2 := range in.G1.Post(c.v) {
			if u2, in2 := out[v2]; in2 && !reach.Reachable(c.u, u2) {
				ok = false
				break
			}
		}
		if ok {
			for _, v0 := range in.G1.Prev(c.v) {
				if u0, in0 := out[v0]; in0 && !reach.Reachable(u0, c.u) {
					ok = false
					break
				}
			}
		}
		if ok {
			out[c.v] = c.u
			used[c.u] = true
		}
	}
	return out
}
