package core

import (
	"cmp"
	"math"
	"slices"

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
// The buckets are drawn from the scratch; the caller returns each to the
// free lists once it has run.
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
	sc := mx.sc
	if cap(sc.buckets) < nb {
		sc.buckets = make([]*matchList, nb)
	}
	buckets := sc.buckets[:nb]
	clear(buckets)
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
			buckets[i] = mx.getList()
		}
		b := buckets[i]
		if b.good[v] == nil {
			set := mx.getSet()
			set.Clear()
			b.addOwned(v, set)
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

// runSim evaluates the bucket runs plus one run over the full list and
// returns the mapping with the highest qualSim; run has already augmented
// each. The extra run is conservative: one more candidate mapping can only
// raise the max, so the O(log²(n1·n2)/(n1·n2)) guarantee of the bucket
// scheme is preserved.
//
// When a single bucket holds every pair of H, as when all admissible
// pairs weigh the same (label equality with unit weights), that bucket
// is H: it lists H's nodes in H's order with H's candidate sets. The
// full-list run would return the bucket run's mapping again, which
// consider cannot prefer (it needs >), so it is skipped. The check comes
// before anything runs, because run removes conflict pairs from its list.
func (mx *matcher) runSim(h *matchList) Mapping {
	in := mx.in
	best := Mapping{}
	bestQ := -1.0
	consider := func(m Mapping) {
		if q := in.QualSim(m); q > bestQ {
			bestQ = q
			best = m
		}
	}
	buckets := mx.simBuckets(h)
	whole := len(buckets) == 1 && buckets[0].pairCount() == h.pairCount()
	for _, b := range buckets {
		consider(mx.run(b))
		mx.putList(b)
	}
	if !whole {
		consider(mx.run(h))
	}
	return best
}

// augCand is one pair the augmentation pass may add.
type augCand struct {
	v, u graph.NodeID
	w    float64
}

// augment extends the mapping in image (image[v] = σ(v), graph.Invalid
// off the domain) in place with additional admissible pairs in
// descending weight order, keeping the edge-to-path and (if configured)
// injectivity constraints intact, and reports how many it added. The
// bucket partition deliberately keeps weights homogeneous within a run,
// so a bucket winner often leaves compatible heavy/light pairs from other
// buckets on the table; picking them up never decreases qualSim. One
// pass leaves nothing to add: constraints only grow as pairs join, so a
// pair rejected once stays rejected.
func (mx *matcher) augment(image []graph.NodeID) int {
	in := mx.in
	reach := in.Reach()
	var used *bitset.Set
	if mx.injective {
		used = mx.getSet()
		used.Clear()
		for _, u := range image {
			if u != graph.Invalid {
				used.Add(int(u))
			}
		}
	}
	cands := mx.sc.aug[:0]
	for v, row := range mx.cands {
		mx.poll()
		if image[v] != graph.Invalid {
			continue
		}
		vv := graph.NodeID(v)
		wv := in.G1.Weight(vv)
		for _, c := range row {
			cands = append(cands, augCand{v: vv, u: c.U, w: wv * c.Score})
		}
	}
	mx.sc.aug = cands
	slices.SortFunc(cands, func(a, b augCand) int {
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		case a.v != b.v:
			return cmp.Compare(a.v, b.v)
		}
		return cmp.Compare(a.u, b.u)
	})
	added := 0
	for _, c := range cands {
		if image[c.v] != graph.Invalid || used != nil && used.Contains(int(c.u)) {
			continue
		}
		ok := true
		for _, v2 := range in.G1.Post(c.v) {
			if u2 := image[v2]; u2 != graph.Invalid && !reach.Reachable(c.u, u2) {
				ok = false
				break
			}
		}
		if ok {
			for _, v0 := range in.G1.Prev(c.v) {
				if u0 := image[v0]; u0 != graph.Invalid && !reach.Reachable(u0, c.u) {
					ok = false
					break
				}
			}
		}
		if ok {
			image[c.v] = c.u
			if used != nil {
				used.Add(int(c.u))
			}
			added++
		}
	}
	if used != nil {
		mx.putSet(used)
	}
	return added
}
