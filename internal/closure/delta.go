package closure

import (
	"graphmatch/internal/bitset"
	"graphmatch/internal/graph"
)

// This file implements incremental closure maintenance — the classic
// follow-up to Fan et al.'s matching machinery: instead of re-running the
// O(n·m) condensation DFS on every graph.Patch, the cached Reach index is
// patched in place.
//
//   - Edge insert (u, v) that does not merge SCCs: the new reachable set
//     {comp(v)} ∪ row(comp(v)) is unioned into the row of every ancestor
//     of comp(u) (and comp(u) itself). Ancestors already containing
//     comp(v) are skipped in O(1): closure consistency (c ∈ row(a) ⇒
//     row(c) ⊆ row(a)) is maintained inductively by every update here,
//     so containing the bit implies containing the whole row.
//
//   - Edge insert that merges SCCs (comp(v) already reaches comp(u)):
//     the condensation itself changes shape; ApplyEdges reports failure
//     and the caller falls back to a full rebuild.
//
//   - Edge delete: only the "cone" of ancestors of the deleted edge's
//     source component can lose reachability. Those rows are recomputed
//     in post-order over the (still acyclic) condensation, reusing the
//     untouched rows of every component outside the cone. Deleting an
//     edge internal to an SCC triggers a strong-connectivity check of
//     the component; if the SCC splits, ApplyEdges falls back.
//
// Every step charges an approximate work cost against a budget; when the
// delta cone grows past the point where an incremental update would cost
// as much as rebuilding, ApplyEdges gives up and the caller rebuilds.
//
// The update is copy-on-write: the receiver is never modified, untouched
// component rows are shared between the old and new index, and (for
// edge-only patches) the component assignment slice is shared wholesale.

// Delta reports what an incremental closure update touched, for cache
// accounting and observability.
type Delta struct {
	// Dirty lists the components whose reachability rows were rewritten
	// (a superset of the components whose rows actually changed).
	Dirty []int
	// AddedComps counts the fresh singleton components appended for new
	// nodes.
	AddedComps int
	// Cost is the accumulated work estimate, in probe/word units.
	Cost int
}

// ConeSize reports the number of component rows the update rewrote —
// the "delta cone" the metrics histogram tracks.
func (d *Delta) ConeSize() int { return len(d.Dirty) }

// ApplyEdges incrementally updates the closure for a patch against g0,
// the graph the receiver was computed from: addedNodes nodes appended
// (each becoming a fresh singleton component, with no edges until adds
// wire them), then all of dels removed, then each of adds inserted in
// order — the application order of graph.ApplyPatch. The receiver must
// be an exact unbounded closure of g0 (Compute's shape, not a
// length-bounded index).
//
// On success it returns a new Reach equivalent to recomputing the
// closure of the patched graph, sharing untouched rows with the
// receiver, plus a Delta describing the work done. It returns ok=false
// — with the receiver untouched — when the update cannot be done
// incrementally (an insert merges SCCs, a delete splits one) or when
// the accumulated cost exceeds budget (non-positive budget means half
// the estimated full-rebuild cost). The caller then rebuilds.
func (r *Reach) ApplyEdges(g0 *graph.Graph, addedNodes int, dels, adds [][2]graph.NodeID, budget int) (*Reach, *Delta, bool) {
	n0 := r.n
	if g0.NumNodes() != n0 || addedNodes < 0 {
		return nil, nil, false
	}
	k0 := len(r.compReach)
	k2 := k0 + addedNodes
	n2 := n0 + addedNodes
	if budget <= 0 {
		// Estimate the full-rebuild cost the fallback would pay: the
		// condensation DFS visits every node and edge, and the closure
		// propagation unions one k-bit row per condensation edge —
		// bounded by the edge count (duplicates collapse, so this
		// overshoots; halving compensates). The old k²/64 matrix term
		// undershot by an order of magnitude on bow-tie graphs (many
		// condensation edges, few components squared), rejecting
		// incremental updates twenty times cheaper than the rebuild
		// they were traded for.
		budget = (n0 + g0.NumEdges()*(k0/64+2)) / 2
		if budget < 1024 {
			budget = 1024
		}
	}
	cost := 0
	charge := func(c int) bool { cost += c; return cost <= budget }
	wordsPerRow := k2/64 + 1

	// Extend the component assignment for appended nodes; edge-only
	// patches share the receiver's slice.
	comp := r.comp
	if addedNodes > 0 {
		comp = make([]int, n2)
		copy(comp, r.comp)
		for i := 0; i < addedNodes; i++ {
			comp[n0+i] = k0 + i
		}
	}

	// All rows grow to a uniform capacity of k2 components, keeping
	// CompIndex's probe loop branch-free. Grown shares the underlying
	// words when the word count is unchanged, so growth is usually a
	// header rewrap, not a copy; either way the words are shared with
	// the receiver until own() clones them.
	rows := make([]*bitset.Set, k2)
	owned := make([]bool, k2)
	if addedNodes == 0 {
		copy(rows, r.compReach)
	} else {
		for c := 0; c < k0; c++ {
			rows[c] = r.compReach[c].Grown(k2)
		}
		for c := k0; c < k2; c++ {
			rows[c] = bitset.New(k2)
			owned[c] = true
		}
	}
	own := func(c int) *bitset.Set {
		if !owned[c] {
			rows[c] = rows[c].Clone()
			owned[c] = true
			cost += wordsPerRow
		}
		return rows[c]
	}

	if len(dels) > 0 {
		if !r.applyDeletes(g0, comp, rows, own, dels, charge, wordsPerRow, k0, k2) {
			return nil, nil, false
		}
	}

	for _, e := range adds {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= n2 || int(v) >= n2 {
			return nil, nil, false
		}
		cu, cv := comp[u], comp[v]
		if cu == cv {
			// Intra-component insert: reachability is already total
			// within an SCC. The only observable change is a self-loop
			// on a singleton that was not yet self-reaching.
			if u == v && !rows[cu].Contains(cu) {
				own(cu).Add(cu)
			}
			continue
		}
		if rows[cv].Contains(cu) {
			// v already reaches u: this insert closes a cycle and
			// merges components — the condensation changes shape.
			return nil, nil, false
		}
		if !charge(k2) {
			return nil, nil, false
		}
		// rows[cv] is stable during the scan: cv is not among the
		// updated ancestors (it does not reach cu), and the bits being
		// added ({cv} ∪ row(cv)) never include cu, so the ancestor set
		// itself is stable too.
		target := rows[cv]
		for a := 0; a < k2; a++ {
			if a != cu && !rows[a].Contains(cu) {
				continue // not an ancestor of u
			}
			if rows[a].Contains(cv) {
				continue // already ⊇ {cv} ∪ row(cv) by consistency
			}
			if !charge(wordsPerRow) {
				return nil, nil, false
			}
			ra := own(a)
			ra.Add(cv)
			ra.Or(target)
		}
	}

	d := &Delta{AddedComps: addedNodes, Cost: cost}
	for c := 0; c < k2; c++ {
		if owned[c] {
			d.Dirty = append(d.Dirty, c)
		}
	}
	return &Reach{n: n2, comp: comp, compReach: rows}, d, true
}

type delEdge struct{ u, v graph.NodeID }

// applyDeletes folds all edge deletions into rows at once: since the
// deletes run before the adds and each removes a distinct existing
// edge, the post-delete closure is simply the closure of g0 minus the
// whole delete set, independent of order.
//
// Components splitting into two cases. An edge internal to an SCC can
// only change rows by splitting the SCC (fallback) or, on a singleton,
// by removing its self-loop; cross-component reachability never routes
// through it at the condensation level. A cross-component edge can only
// remove reachability from components that reach its source, so exactly
// the ancestor cone of the source components is recomputed, in
// post-order over the (unchanged, still acyclic) condensation, reusing
// the final rows of every component outside the cone.
func (r *Reach) applyDeletes(g0 *graph.Graph, comp []int, rows []*bitset.Set,
	own func(int) *bitset.Set, dels [][2]graph.NodeID, charge func(int) bool, wordsPerRow, k0, k2 int) bool {
	n0 := r.n
	delSet := make(map[delEdge]bool, len(dels))
	for _, e := range dels {
		// Deleted edges pre-exist in g0, so endpoints are old nodes.
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= n0 || int(e[1]) >= n0 {
			return false
		}
		delSet[delEdge{e[0], e[1]}] = true
	}
	deleted := func(u, v graph.NodeID) bool { return delSet[delEdge{u, v}] }

	internal := make(map[int]bool) // components losing an internal edge
	srcMark := make(map[int]bool)  // source components of cross-component deletes
	var srcList []int
	for e := range delSet {
		cu := comp[e.u]
		if cu == comp[e.v] {
			internal[cu] = true
		} else if !srcMark[cu] {
			srcMark[cu] = true
			srcList = append(srcList, cu)
		}
	}

	// Internal deletes: collect the affected components' members in one
	// pass and check each component survives as a single SCC.
	if len(internal) > 0 {
		if !charge(n0) {
			return false
		}
		members := make(map[int][]graph.NodeID, len(internal))
		for v := 0; v < n0; v++ {
			if internal[comp[v]] {
				members[comp[v]] = append(members[comp[v]], graph.NodeID(v))
			}
		}
		for c, ms := range members {
			if len(ms) == 1 {
				// Singleton: its only possible internal edge is a
				// self-loop (edges are deduped, so there is exactly
				// one), and deleting it clears the component's
				// self-reach bit. Ancestors are unaffected — any path
				// into the node has a loop-free prefix.
				own(c).Remove(c)
				continue
			}
			ok, work := stronglyConnected(g0, comp, c, ms, deleted)
			if !charge(work) {
				return false
			}
			if !ok {
				return false // SCC splits: condensation reshapes, rebuild
			}
		}
	}

	if len(srcList) == 0 {
		return true
	}

	// Cone detection: every component that reaches (or is) a source
	// component of a cross-component delete.
	if !charge(k0 * len(srcList)) {
		return false
	}
	cone := make([]bool, k2)
	var coneList []int
	for a := 0; a < k0; a++ {
		in := srcMark[a]
		if !in {
			row := rows[a]
			for _, s := range srcList {
				if row.Contains(s) {
					in = true
					break
				}
			}
		}
		if in {
			cone[a] = true
			coneList = append(coneList, a)
		}
	}

	// Members of cone components, one pass.
	if !charge(n0) {
		return false
	}
	members := make(map[int][]graph.NodeID, len(coneList))
	for v := 0; v < n0; v++ {
		if cone[comp[v]] {
			members[comp[v]] = append(members[comp[v]], graph.NodeID(v))
		}
	}

	// Recompute cone rows in post-order over the condensation: by the
	// time a component is rebuilt every successor's row is final —
	// non-cone successors were never touched (deletes only shrink
	// reachability toward the sources, which non-cone components never
	// reach), cone successors were rebuilt first.
	const (
		unvisited = iota
		inProgress
		done
	)
	state := make([]uint8, k2)
	var stack []int
	for _, start := range coneList {
		if state[start] != unvisited {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			switch state[c] {
			case unvisited:
				state[c] = inProgress
				for _, x := range members[c] {
					for _, y := range g0.Post(x) {
						if deleted(x, y) {
							continue
						}
						if d := comp[y]; d != c && cone[d] && state[d] == unvisited {
							stack = append(stack, d)
						}
					}
				}
			case inProgress:
				// Successors complete (distinct components cannot cycle,
				// so none is still in progress below us).
				row := bitset.New(k2)
				self := false
				work := 0
				for _, x := range members[c] {
					work += len(g0.Post(x))
					for _, y := range g0.Post(x) {
						if deleted(x, y) {
							continue
						}
						d := comp[y]
						if d == c {
							self = true
							continue
						}
						row.Add(d)
						row.Or(rows[d])
						work += wordsPerRow
					}
				}
				if !charge(work + wordsPerRow) {
					return false
				}
				if self {
					row.Add(c)
				}
				// Install directly: own() would clone the old row first,
				// which the full rewrite makes pointless — but the owned
				// flag must flip so later adds mutate in place.
				own(c).CopyFrom(row)
				state[c] = done
				stack = stack[:len(stack)-1]
			default:
				stack = stack[:len(stack)-1]
			}
		}
	}
	return true
}

// stronglyConnected reports whether the members of component c remain
// one SCC in the induced subgraph after removing the deleted edges:
// a forward and a backward reachability sweep from one member must each
// cover all members. It also returns the work done, in edges scanned.
func stronglyConnected(g0 *graph.Graph, comp []int, c int, ms []graph.NodeID,
	deleted func(u, v graph.NodeID) bool) (bool, int) {
	work := 0
	sweep := func(backward bool) int {
		seen := make(map[graph.NodeID]bool, len(ms))
		seen[ms[0]] = true
		queue := []graph.NodeID{ms[0]}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			var next []graph.NodeID
			if backward {
				next = g0.Prev(x)
			} else {
				next = g0.Post(x)
			}
			work += len(next)
			for _, y := range next {
				if comp[int(y)] != c || seen[y] {
					continue
				}
				if backward {
					if deleted(y, x) {
						continue
					}
				} else if deleted(x, y) {
					continue
				}
				seen[y] = true
				queue = append(queue, y)
			}
		}
		return len(seen)
	}
	if sweep(false) != len(ms) {
		return false, work
	}
	return sweep(true) == len(ms), work
}
