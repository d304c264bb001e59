package graph

// This file contains traversal utilities: BFS, single-source
// reachability, undirected connected components (used by the Appendix B
// partitioning optimisation) and simple path queries (used to verify
// p-hom mappings, whose edge-to-path condition requires a nonempty path
// between matched endpoints).

// BFS visits nodes reachable from start in breadth-first order, invoking
// visit for each (including start). Traversal stops early if visit returns
// false.
func (g *Graph) BFS(start NodeID, visit func(v NodeID) bool) {
	g.check(start)
	g.Finish()
	seen := make([]bool, len(g.nodes))
	queue := make([]NodeID, 0, 16)
	queue = append(queue, start)
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !visit(v) {
			return
		}
		for _, u := range g.post.row(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
}

// ReachableFrom returns the set of nodes reachable from start, including
// start itself, as a boolean slice indexed by NodeID.
func (g *Graph) ReachableFrom(start NodeID) []bool {
	reach := make([]bool, g.NumNodes())
	g.BFS(start, func(v NodeID) bool {
		reach[v] = true
		return true
	})
	return reach
}

// HasPath reports whether a nonempty path from u to v exists — the exact
// condition a p-hom mapping imposes on matched edge endpoints (Section 3.2:
// "there exists a nonempty path"). A self-loop or longer cycle through u is
// required for HasPath(u, u) to hold; the trivial empty path does not count.
func (g *Graph) HasPath(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	g.Finish()
	// BFS from the successors of u so the empty path is excluded.
	seen := make([]bool, len(g.nodes))
	queue := make([]NodeID, 0, len(g.post.row(u)))
	for _, w := range g.post.row(u) {
		if w == v {
			return true
		}
		if !seen[w] {
			seen[w] = true
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w := range g.post.row(x) {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// ShortestPath returns one shortest nonempty path from u to v as a node
// sequence starting at u and ending at v, or nil if none exists. Used by
// tooling to display the witness path behind an edge-to-path match. A
// nonempty path from u to itself (through a self-loop or a longer cycle) is
// returned as [u, ..., u].
func (g *Graph) ShortestPath(u, v NodeID) []NodeID {
	g.check(u)
	g.check(v)
	g.Finish()
	n := len(g.nodes)
	parent := make([]NodeID, n)
	seen := make([]bool, n)
	queue := make([]NodeID, 0, 16)
	// Seed from u's successors so that the empty path is excluded.
	for _, w := range g.post.row(u) {
		if !seen[w] {
			seen[w] = true
			parent[w] = u
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 && !seen[v] {
		x := queue[0]
		queue = queue[1:]
		for _, w := range g.post.row(x) {
			if !seen[w] {
				seen[w] = true
				parent[w] = x
				queue = append(queue, w)
			}
		}
	}
	if !seen[v] {
		return nil
	}
	// Walk parents back from v; the walk ends at a node whose parent is u
	// because the BFS was seeded from u's successors.
	rev := []NodeID{v}
	for at := v; ; {
		p := parent[at]
		rev = append(rev, p)
		if p == u {
			break
		}
		at = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ConnectedComponents treats the graph as undirected and returns the node
// sets of its connected components, each sorted by ID. The Appendix B
// partitioning optimisation relies on this: after unmatchable nodes are
// removed, each remaining component can be matched independently
// (Proposition 1).
func (g *Graph) ConnectedComponents() [][]NodeID {
	g.Finish()
	n := len(g.nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	var stack []NodeID
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(comps)
		var members []NodeID
		stack = append(stack[:0], NodeID(s))
		comp[s] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, u := range g.post.row(v) {
				if comp[u] == -1 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
			for _, u := range g.prev.row(v) {
				if comp[u] == -1 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, dedupSorted(members))
	}
	return comps
}

// IsDAG reports whether the graph has no directed cycle (self-loops count
// as cycles). The paper's hardness results hold already for DAGs, and tests
// use this to validate generated reduction instances.
func (g *Graph) IsDAG() bool {
	g.Finish()
	n := len(g.nodes)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.prev.row(NodeID(v)))
	}
	queue := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	visited := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		visited++
		for _, u := range g.post.row(v) {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	return visited == n
}
