package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Old-vs-new equivalence tests for the allocation-free greedyMatch hot
// path. refMatcher below is a direct transcription of the
// implementation before the rewrite — map-backed matching lists,
// per-recursion Clone+And/AndNot trims, closure rows re-materialised
// per matcher via Reach.ReachableSet — kept verbatim as executable
// ground truth. The rewrite is a pure representation change, so every
// algorithm must return bit-identical mappings (not merely mappings of
// equal quality), and these tests quickcheck that over random
// instances.

// refList is the pre-rewrite matchList: node order slice plus a map of
// good sets.
type refList struct {
	nodes []graph.NodeID
	good  map[graph.NodeID]*bitset.Set
}

func newRefList() *refList {
	return &refList{good: make(map[graph.NodeID]*bitset.Set)}
}

func (h *refList) add(v graph.NodeID, set *bitset.Set) {
	h.nodes = append(h.nodes, v)
	h.good[v] = set
}

func (h *refList) pairCount() int {
	total := 0
	for _, v := range h.nodes {
		total += h.good[v].Count()
	}
	return total
}

func (h *refList) removePairs(pairs []Pair) {
	for _, p := range pairs {
		if set, ok := h.good[p.V]; ok {
			set.Remove(int(p.U))
		}
	}
	alive := h.nodes[:0]
	for _, v := range h.nodes {
		if h.good[v].Empty() {
			delete(h.good, v)
			continue
		}
		alive = append(alive, v)
	}
	h.nodes = alive
}

// refMatcher reproduces the pre-rewrite matcher, including its eager
// per-matcher materialisation of the closure rows.
type refMatcher struct {
	in        *Instance
	injective bool
	pickFirst bool
	pickBest  bool
	n2        int
	fwd       []*bitset.Set
	bwd       []*bitset.Set
	prevBits  []*bitset.Set
	postBits  []*bitset.Set
}

func newRefMatcher(in *Instance, injective bool) *refMatcher {
	n1, n2 := in.G1.NumNodes(), in.G2.NumNodes()
	reach := in.Reach()
	mx := &refMatcher{in: in, injective: injective, n2: n2}
	mx.fwd = make([]*bitset.Set, n2)
	mx.bwd = make([]*bitset.Set, n2)
	for u := 0; u < n2; u++ {
		mx.fwd[u] = reach.ReachableSet(graph.NodeID(u))
		mx.bwd[u] = bitset.New(n2)
	}
	for u := 0; u < n2; u++ {
		row := mx.fwd[u]
		for w := row.Next(0); w >= 0; w = row.Next(w + 1) {
			mx.bwd[w].Add(u)
		}
	}
	mx.prevBits = make([]*bitset.Set, n1)
	mx.postBits = make([]*bitset.Set, n1)
	for v := 0; v < n1; v++ {
		pb := bitset.New(n1)
		for _, p := range in.G1.Prev(graph.NodeID(v)) {
			pb.Add(int(p))
		}
		mx.prevBits[v] = pb
		sb := bitset.New(n1)
		for _, s := range in.G1.Post(graph.NodeID(v)) {
			sb.Add(int(s))
		}
		mx.postBits[v] = sb
	}
	return mx
}

// pairWeight is the product-graph node weight w(v)·mat(v, u) of the
// similarity-driven algorithms, straight from the matrix.
func (in *Instance) pairWeight(v, u graph.NodeID) float64 {
	return in.G1.Weight(v) * in.Mat.Score(v, u)
}

func (mx *refMatcher) initialList() *refList {
	in := mx.in
	reach := in.Reach()
	h := newRefList()
	for v := 0; v < in.G1.NumNodes(); v++ {
		vv := graph.NodeID(v)
		selfLoop := in.G1.HasEdge(vv, vv)
		set := bitset.New(mx.n2)
		for u := 0; u < mx.n2; u++ {
			uu := graph.NodeID(u)
			if !in.admissible(vv, uu) {
				continue
			}
			if selfLoop && !reach.Reachable(uu, uu) {
				continue
			}
			set.Add(u)
		}
		if !set.Empty() {
			h.add(vv, set)
		}
	}
	return h
}

func (mx *refMatcher) pickCandidate(v graph.NodeID, good *bitset.Set) graph.NodeID {
	if !mx.pickBest {
		return graph.NodeID(good.Next(0))
	}
	best, bestW := good.Next(0), -1.0
	for u := good.Next(0); u >= 0; u = good.Next(u + 1) {
		if w := mx.in.pairWeight(v, graph.NodeID(u)); w > bestW {
			bestW, best = w, u
		}
	}
	return graph.NodeID(best)
}

func (mx *refMatcher) greedyMatch(h *refList) (sigma, conflicts []Pair) {
	if len(h.nodes) == 0 {
		return nil, nil
	}
	var v graph.NodeID
	if mx.pickFirst {
		v = h.nodes[0]
	} else {
		best := -1
		for _, cand := range h.nodes {
			if c := h.good[cand].Count(); c > best {
				best, v = c, cand
			}
		}
	}
	u := mx.pickCandidate(v, h.good[v])

	plus := newRefList()
	minus := newRefList()

	mv := h.good[v].Clone()
	mv.Remove(int(u))
	if !mv.Empty() {
		minus.add(v, mv)
	}

	for _, v2 := range h.nodes {
		if v2 == v {
			continue
		}
		old := h.good[v2]
		isPrev := mx.prevBits[v].Contains(int(v2))
		isPost := mx.postBits[v].Contains(int(v2))
		needsU := mx.injective && old.Contains(int(u))
		if !isPrev && !isPost && !needsU {
			plus.add(v2, old)
			continue
		}
		trimmed := old.Clone()
		if isPrev {
			trimmed.And(mx.bwd[u])
		}
		if isPost {
			trimmed.And(mx.fwd[u])
		}
		if needsU {
			trimmed.Remove(int(u))
		}
		moved := old.Clone()
		moved.AndNot(trimmed)
		if !trimmed.Empty() {
			plus.add(v2, trimmed)
		}
		if !moved.Empty() {
			minus.add(v2, moved)
		}
	}

	s1, i1 := mx.greedyMatch(plus)
	s2, i2 := mx.greedyMatch(minus)

	if len(s1)+1 >= len(s2) {
		sigma = append(s1, Pair{V: v, U: u})
	} else {
		sigma = s2
	}
	if len(i1) > len(i2)+1 {
		conflicts = i1
	} else {
		conflicts = append(i2, Pair{V: v, U: u})
	}
	return sigma, conflicts
}

func (mx *refMatcher) run(h *refList) Mapping {
	var sigmaM []Pair
	for len(h.nodes) > len(sigmaM) {
		sigma, conflicts := mx.greedyMatch(h)
		if len(sigma) > len(sigmaM) {
			sigmaM = sigma
		}
		if len(conflicts) == 0 {
			break
		}
		h.removePairs(conflicts)
	}
	base := pairsToMapping(sigmaM)
	return mx.refAugment(base)
}

// refAugment is the pre-rewrite augmentation pass (unchanged in the
// rewrite, transcribed anyway so the reference stands alone).
func (mx *refMatcher) refAugment(m Mapping) Mapping {
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
	for v := 0; v < in.G1.NumNodes(); v++ {
		vv := graph.NodeID(v)
		if _, ok := out[vv]; ok {
			continue
		}
		selfLoop := in.G1.HasEdge(vv, vv)
		for u := 0; u < mx.n2; u++ {
			uu := graph.NodeID(u)
			if !in.admissible(vv, uu) {
				continue
			}
			if selfLoop && !reach.Reachable(uu, uu) {
				continue
			}
			cands = append(cands, cand{v: vv, u: uu, w: in.pairWeight(vv, uu)})
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

func (mx *refMatcher) simBuckets(h *refList) []*refList {
	in := mx.in
	maxW := 0.0
	for _, v := range h.nodes {
		set := h.good[v]
		for u := set.Next(0); u >= 0; u = set.Next(u + 1) {
			if w := in.pairWeight(v, graph.NodeID(u)); w > maxW {
				maxW = w
			}
		}
	}
	if maxW <= 0 {
		return nil
	}
	n := in.G1.NumNodes() * in.G2.NumNodes()
	if n < 2 {
		n = 2
	}
	floor := maxW / float64(n)
	nb := int(math.Ceil(math.Log2(float64(n)))) + 1
	buckets := make([]*refList, nb)
	for _, v := range h.nodes {
		set := h.good[v]
		for u := set.Next(0); u >= 0; u = set.Next(u + 1) {
			w := in.pairWeight(v, graph.NodeID(u))
			if w < floor || w <= 0 {
				continue
			}
			i := 0
			if w < maxW {
				i = int(math.Floor(math.Log2(maxW / w)))
			}
			if i >= nb {
				i = nb - 1
			}
			if buckets[i] == nil {
				buckets[i] = newRefList()
			}
			b := buckets[i]
			if _, ok := b.good[v]; !ok {
				b.add(v, bitset.New(mx.n2))
			}
			b.good[v].Add(u)
		}
	}
	out := buckets[:0]
	for _, b := range buckets {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

func (mx *refMatcher) runSim(h *refList) Mapping {
	in := mx.in
	best := Mapping{}
	bestQ := -1.0
	consider := func(m Mapping) {
		m = mx.refAugment(m)
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

func pairsToMapping(pairs []Pair) Mapping {
	m := make(Mapping, len(pairs))
	for _, p := range pairs {
		m[p.V] = p.U
	}
	return m
}

func refCompMaxCard(in *Instance, injective, pickFirst bool) Mapping {
	mx := newRefMatcher(in, injective)
	mx.pickFirst = pickFirst
	return mx.run(mx.initialList())
}

func refCompMaxSim(in *Instance, injective bool) Mapping {
	mx := newRefMatcher(in, injective)
	mx.pickBest = true
	return mx.runSim(mx.initialList())
}

// weightedRandomInstance builds an instance with a dense random
// similarity matrix and random node weights, so thresholds, buckets and
// weight-greedy picks all get exercised (label equality only yields 0/1
// scores and uniform weights, which leaves most of compMaxSim cold).
func weightedRandomInstance(seed int64, n1, n2 int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	build := func(n, deg int) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(len(labels))])
		}
		for i := 0; i < n*deg; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g.Finish()
		return g
	}
	g1 := build(n1, 2)
	g2 := build(n2, 2)
	for v := 0; v < n1; v++ {
		g1.SetWeight(graph.NodeID(v), 0.25+rng.Float64())
	}
	mat := simmatrix.NewDense(n1, n2)
	for v := 0; v < n1; v++ {
		for u := 0; u < n2; u++ {
			// Quantised scores create plenty of ties, stressing the
			// deterministic tie-breaking of both implementations.
			mat.Set(graph.NodeID(v), graph.NodeID(u), float64(rng.Intn(5))/4)
		}
	}
	return NewInstance(g1, g2, mat, 0.5)
}

func mappingsEqual(t *testing.T, label string, seed int64, got, want Mapping) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: got %v, want %v", label, seed, got, want)
	}
	for v, u := range want {
		if got[v] != u {
			t.Fatalf("%s seed %d: got %v, want %v", label, seed, got, want)
		}
	}
}

func TestGreedyMatchEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		in := randomInstance(seed, 4+int(seed%7), 6+int(seed%11))
		mappingsEqual(t, "CompMaxCard", seed, compMaxCard(in), refCompMaxCard(in, false, false))
		mappingsEqual(t, "CompMaxCard11", seed, compMaxCard11(in), refCompMaxCard(in, true, false))
		in.ArbitraryPick = true
		mappingsEqual(t, "ArbitraryPick", seed, compMaxCard(in), refCompMaxCard(in, false, true))
	}
}

func TestGreedyMatchEquivalenceWeighted(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		// Random weights and quantised scores spread the pairs over
		// several buckets, so runSim makes every bucket run and the
		// full-list run.
		in := weightedRandomInstance(seed, 4+int(seed%6), 6+int(seed%9))
		got, want := compMaxCard(in), refCompMaxCard(in, false, false)
		mappingsEqual(t, "CompMaxCard/weighted", seed, got, want)
		if gq, wq := in.QualCard(got), in.QualCard(want); gq != wq {
			t.Fatalf("qualCard seed %d: %v != %v", seed, gq, wq)
		}
		got, want = compMaxSim(in), refCompMaxSim(in, false)
		mappingsEqual(t, "CompMaxSim", seed, got, want)
		// Tolerance, not equality: QualSim sums over map iteration
		// order, so even identical mappings may differ by an ulp.
		if gq, wq := in.QualSim(got), in.QualSim(want); math.Abs(gq-wq) > 1e-9 {
			t.Fatalf("qualSim seed %d: %v != %v", seed, gq, wq)
		}
		mappingsEqual(t, "CompMaxSim11", seed, compMaxSim11(in), refCompMaxSim(in, true))
	}
}

// TestGreedyMatchEquivalenceSingleBucket covers what the weighted cases
// above cannot: label equality with unit weights gives every admissible
// pair the same weight, so compMaxSim's buckets collapse into one that
// holds all of H, and runSim skips its full-list run. refMatcher.runSim
// still makes both runs; the mappings must agree bit for bit.
func TestGreedyMatchEquivalenceSingleBucket(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		in := randomInstance(seed, 4+int(seed%9), 6+int(seed%13))
		mx := in.newMatcher(false, true)
		h := mx.initialList()
		if len(h.nodes) > 0 {
			buckets := mx.simBuckets(h)
			if len(buckets) != 1 || buckets[0].pairCount() != h.pairCount() {
				t.Fatalf("seed %d: %d buckets, want one holding all %d pairs", seed, len(buckets), h.pairCount())
			}
		}
		mx.release()
		mappingsEqual(t, "CompMaxSim/single-bucket", seed, compMaxSim(in), refCompMaxSim(in, false))
		mappingsEqual(t, "CompMaxSim11/single-bucket", seed, compMaxSim11(in), refCompMaxSim(in, true))
	}
}

func TestGreedyMatchEquivalenceBounded(t *testing.T) {
	// The bounded-path variant swaps in a different Reach shape
	// (singleton components) — the rows fast path must not change
	// results there either.
	for seed := int64(0); seed < 20; seed++ {
		for _, k := range []int{1, 2, 3} {
			in := randomInstance(seed, 5, 9)
			in.MaxPathLen = k
			ref := randomInstance(seed, 5, 9)
			ref.MaxPathLen = k
			mappingsEqual(t, "CompMaxCard/bounded", seed, compMaxCard(in), refCompMaxCard(ref, false, false))
			mappingsEqual(t, "CompMaxCard11/bounded", seed, compMaxCard11(in), refCompMaxCard(ref, true, false))
		}
	}
}
