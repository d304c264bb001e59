package core

import (
	"context"

	"graphmatch/internal/bitset"
	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// This file implements algorithm compMaxCard of Fig. 3 and its procedures
// greedyMatch and trimMatching of Fig. 4, together with the 1-1 variant
// compMaxCard1−1 (Section 5, "Approximation algorithm for CPH1−1").
//
// The matching list H keeps, for every pattern node v still in play, the
// set H[v].good of data nodes that may match v. greedyMatch picks a
// candidate pair (v, u), trims the neighbours' candidate sets against it
// (parents must reach u, children must be reachable from u — consulting
// the closure index H2), and splits H into H+ (the world where (v, u) is a
// match) and H− (the world where it is not: every candidate the trim
// displaced, plus v's remaining candidates). The larger of the two
// recursive solutions wins; the set I of pairwise-contradictory pairs that
// comes back up lets the outer loop discard bad regions of the search
// space early. The procedure simulates Ramsey/ISRemoval on the product
// graph (Proposition 5.2) and inherits the O(log²(n1·n2)/(n1·n2))
// guarantee of Theorem 5.1.
//
// The hot path is engineered to be allocation-free in steady state: the
// reachability index of G2+ is shared immutable state (closure.Index,
// injected by the serving catalog or built once per instance: a
// per-candidate probe of the SCC-condensed closure), matching lists use dense slice-indexed storage instead of
// maps, the trim is a single Index.Split pass producing the kept and
// displaced candidates together, and lists, candidate bitsets and pair
// buffers are recycled through free lists in a pooled scratch that
// outlives the request (scratch.go). A deadline abort hands the scratch
// back too, less the sets the lists it abandoned still hold; idle
// scratch is released at garbage collection, so pooled memory stays
// bounded by what in-flight requests use.
// TestGreedyMatchAllocationFree pins the zero-allocation property; the
// equivalence tests pin that the restructuring returns bit-identical
// mappings to the direct transcription of Figs. 3–4, and
// TestTierEquivalence pins that the condensed probe agrees bit for bit
// with the dense reference rows.

// Pair is one candidate match (v, u) handled by the matching list.
type Pair struct {
	V graph.NodeID
	U graph.NodeID
}

// matchList is the matching list H restricted to nodes with nonempty good
// sets. good is indexed densely by pattern node ID (nil = not in the
// list); nodes preserves insertion order, which the max-|good| pick and
// the partitioning both iterate, so list order — and therefore the
// search — is deterministic. minus sets are not stored between calls:
// both H+ and H− reset minus to ∅ (Fig. 4 lines 7 and 9), so they live
// only inside greedyMatch.
type matchList struct {
	nodes []graph.NodeID
	good  []*bitset.Set
	// owned lists the sets drawn from the scratch's free list for this
	// matchList, as opposed to rows shared with the parent list; only
	// these go back to the pool when the list is released.
	owned []*bitset.Set
}

// add inserts a row shared with (or outliving) the parent list.
func (h *matchList) add(v graph.NodeID, set *bitset.Set) {
	h.nodes = append(h.nodes, v)
	h.good[v] = set
}

// addOwned inserts a row drawn from the scratch's set free list.
func (h *matchList) addOwned(v graph.NodeID, set *bitset.Set) {
	h.add(v, set)
	h.owned = append(h.owned, set)
}

func newMatchList(n1 int) *matchList {
	return &matchList{good: make([]*bitset.Set, n1)}
}

// pairCount reports the number of candidate pairs Σ_v |good[v]|.
func (h *matchList) pairCount() int {
	total := 0
	for _, v := range h.nodes {
		total += h.good[v].Count()
	}
	return total
}

// searchStats instruments one run of the compMaxCard machinery; the
// entry points stamp it on the algorithm's span (tracing.go). All
// counters are cumulative over the outer loop's greedyMatch invocations.
type searchStats struct {
	// InitialPairs is Σ|H[v].good| at the start (product-graph size).
	InitialPairs int
	// OuterIterations counts rounds of the Fig. 3 while loop.
	OuterIterations int
	// GreedyCalls counts recursive greedyMatch invocations.
	GreedyCalls int
	// MaxDepth is the deepest recursion reached.
	MaxDepth int
	// ConflictPairsRemoved counts pairs discarded via the I sets.
	ConflictPairsRemoved int
	// AugmentedPairs counts pairs added by the augmentation pass.
	AugmentedPairs int
}

// matcher carries the per-run state shared by all greedyMatch
// invocations: the pattern adjacency (H1), the shared reachability
// index of G2+ (H2), the injectivity flag, and the scratch
// whose free lists make the recursion allocation-free. A matcher is
// single-use and single-goroutine; concurrency happens one matcher per
// call.
type matcher struct {
	in        *Instance
	injective bool
	pickBest  bool // pick the heaviest candidate u (used by compMaxSim)
	n1        int
	n2        int
	idx       closure.Index        // shared reachability index of G2+
	cands     [][]simmatrix.Scored // in.candidates(), the admissible images per pattern node
	order     [][]simmatrix.Scored // cands by descending pair weight, when pickBest
	prevBits  []*bitset.Set        // prevBits[v] over V1
	postBits  []*bitset.Set        // postBits[v] over V1
	stats     searchStats

	// Cooperative cancellation (see cancel.go): done is the bound
	// context's Done channel (nil = polling disabled), steps gates the
	// channel select to every cancelStep-th poll.
	ctx   context.Context
	done  <-chan struct{}
	steps uint64

	// sc holds the free lists and per-request buffers (scratch.go),
	// drawn from scratchPool; release hands it back.
	sc *scratch
}

// newMatcher sets up a matcher over a scratch drawn from scratchPool.
// pickBest selects compMaxSim's weight-greedy candidate pick, and with
// it the per-node weight order the pick walks.
func (in *Instance) newMatcher(injective, pickBest bool) *matcher {
	mx := &matcher{
		in: in, injective: injective, pickBest: pickBest,
		n1: in.G1.NumNodes(), n2: in.G2.NumNodes(),
		idx: in.Index(), cands: in.candidates(),
		sc: scratchPool.Get().(*scratch),
	}
	mx.prevBits, mx.postBits = mx.sc.adjacency(in.G1)
	if pickBest {
		mx.order = mx.sc.weightOrder(in.G1, mx.cands)
	}
	return mx
}

// initialList builds the top-level matching list (Fig. 3 line 4) from
// the instance's candidate lists. Nodes with no candidates are excluded —
// they can never join a mapping (the Appendix B partitioning
// observation). The top-level list owns its sets (removePairs mutates
// them); the caller returns it to the free lists when the run is over.
func (mx *matcher) initialList() *matchList {
	h := mx.getList()
	for v, row := range mx.cands {
		if len(row) == 0 {
			continue
		}
		set := mx.getSet()
		set.Clear()
		for _, c := range row {
			set.Add(int(c.U))
		}
		h.addOwned(graph.NodeID(v), set)
	}
	return h
}

// greedyMatch is procedure greedyMatch of Fig. 4. It never mutates h; the
// partitions share unchanged rows with the parent list, which is safe
// because lists are read-only once constructed. The returned pair slices
// are pooled: callers hand them back via putPairs once consumed.
func (mx *matcher) greedyMatch(h *matchList) (sigma, conflicts []Pair) {
	return mx.greedyMatchAt(h, 1)
}

func (mx *matcher) greedyMatchAt(h *matchList, depth int) (sigma, conflicts []Pair) {
	if len(h.nodes) == 0 {
		return nil, nil
	}
	mx.poll()
	mx.stats.GreedyCalls++
	if depth > mx.stats.MaxDepth {
		mx.stats.MaxDepth = depth
	}
	// Line 2: pick v with maximal good set, then a candidate u. The
	// ArbitraryPick ablation takes the first node instead, quantifying
	// how much the max-|good| heuristic contributes.
	var v graph.NodeID
	if mx.in.ArbitraryPick {
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
	ui := int(u)

	plus := mx.getList()
	minus := mx.getList()

	// Line 3: v keeps only u (which moves out of the list via the match);
	// its displaced candidates seed H−.
	mv := mx.getSet()
	mv.CopyFrom(h.good[v])
	mv.Remove(ui)
	if !mv.Empty() {
		minus.addOwned(v, mv)
	} else {
		mx.putSet(mv)
	}

	// Line 4 (trimMatching) merged with lines 5–9 (partition): for every
	// other node, trim its candidates against the reachability
	// constraints the edges demand; displaced candidates go to H−. One
	// Index.Split pass (a per-candidate component probe) yields the kept
	// and displaced candidates together.
	for _, v2 := range h.nodes {
		if v2 == v {
			continue
		}
		old := h.good[v2]
		isPrev := mx.prevBits[v].Contains(int(v2)) // edge (v2, v): σ(v2) must reach u
		isPost := mx.postBits[v].Contains(int(v2)) // edge (v, v2): u must reach σ(v2)
		needsU := mx.injective && old.Contains(ui)
		if !isPrev && !isPost && !needsU {
			plus.add(v2, old) // untouched row: share it
			continue
		}
		trimmed := mx.getSet()
		moved := mx.getSet()
		var anyTrimmed, anyMoved bool
		if isPrev || isPost {
			anyTrimmed, anyMoved = mx.idx.Split(old, u, isPrev, isPost, trimmed, moved)
		} else {
			// Only the matched image u is displaced (injective trim with
			// no edge constraint): rows in a list are never empty, so
			// trimmed starts nonempty.
			trimmed.CopyFrom(old)
			moved.Clear()
			anyTrimmed = true
		}
		if needsU && trimmed.Contains(ui) {
			trimmed.Remove(ui)
			moved.Add(ui)
			anyMoved = true
			anyTrimmed = !trimmed.Empty()
		}
		if anyTrimmed {
			plus.addOwned(v2, trimmed)
		} else {
			mx.putSet(trimmed)
		}
		if anyMoved {
			minus.addOwned(v2, moved)
		} else {
			mx.putSet(moved)
		}
	}

	// Lines 10–13: recurse on both worlds and keep the larger outcomes.
	// The loser's buffer goes back to the pool; the winner's backing
	// array travels up as this call's result.
	s1, i1 := mx.greedyMatchAt(plus, depth+1)
	s2, i2 := mx.greedyMatchAt(minus, depth+1)
	mx.putList(plus)
	mx.putList(minus)

	if len(s1)+1 >= len(s2) {
		sigma = mx.appendPair(s1, Pair{V: v, U: u})
		mx.putPairs(s2)
	} else {
		sigma = s2
		mx.putPairs(s1)
	}
	if len(i1) > len(i2)+1 {
		conflicts = i1
		mx.putPairs(i2)
	} else {
		conflicts = mx.appendPair(i2, Pair{V: v, U: u})
		mx.putPairs(i1)
	}
	return sigma, conflicts
}

// pickCandidate selects u from v's good set: the first candidate by ID
// for the cardinality algorithms (any candidate contributes equally to
// qualCard), or the heaviest pair w(v)·mat(v, u) for the similarity
// algorithms (where the pick directly feeds the qualSim numerator),
// earliest ID among equals. A good set only ever holds candidates of v,
// so the heaviest pick is the first of v's weight-ordered candidates
// still in it.
func (mx *matcher) pickCandidate(v graph.NodeID, good *bitset.Set) graph.NodeID {
	if !mx.pickBest {
		return graph.NodeID(good.Next(0))
	}
	for _, c := range mx.order[v] {
		if good.Contains(int(c.U)) {
			return c.U
		}
	}
	return graph.Invalid
}

// removePairs deletes the pairs of I from the top-level matching list
// (Fig. 3 line 10, "H := H \ I") and drops nodes whose candidate sets
// become empty.
func (h *matchList) removePairs(pairs []Pair) {
	for _, p := range pairs {
		if set := h.good[p.V]; set != nil {
			set.Remove(int(p.U))
		}
	}
	alive := h.nodes[:0]
	for _, v := range h.nodes {
		if h.good[v].Empty() {
			h.good[v] = nil
			continue
		}
		alive = append(alive, v)
	}
	h.nodes = alive
}

// run is the outer loop of compMaxCard (Fig. 3 lines 8–12), followed by a
// greedy augmentation pass: leftover pattern nodes absorb any remaining
// candidate consistent with the mapping found. Augmentation can only grow
// a valid mapping, so the approximation guarantee survives; it matters
// most at low thresholds ξ, where candidates abound and the paper observes
// that "it is relatively easy for a node in G1 to find its matching
// nodes".
func (mx *matcher) run(h *matchList) Mapping {
	mx.stats.InitialPairs += h.pairCount()
	var sigmaM []Pair
	for len(h.nodes) > len(sigmaM) {
		mx.stats.OuterIterations++
		sigma, conflicts := mx.greedyMatch(h)
		if len(sigma) > len(sigmaM) {
			mx.putPairs(sigmaM)
			sigmaM = sigma
		} else {
			mx.putPairs(sigma)
		}
		if len(conflicts) == 0 {
			break // defensive: cannot make progress
		}
		mx.stats.ConflictPairsRemoved += len(conflicts)
		h.removePairs(conflicts)
		mx.putPairs(conflicts)
	}
	image := mx.sc.imageOf(mx.n1)
	for _, p := range sigmaM {
		image[p.V] = p.U
	}
	size := len(sigmaM)
	mx.putPairs(sigmaM)
	added := mx.augment(image)
	mx.stats.AugmentedPairs += added
	return imageMapping(image, size+added)
}

// imageMapping turns an image buffer (graph.Invalid off the domain) into
// a Mapping of the given size.
func imageMapping(image []graph.NodeID, size int) Mapping {
	m := make(Mapping, size)
	for v, u := range image {
		if u != graph.Invalid {
			m[graph.NodeID(v)] = u
		}
	}
	return m
}
