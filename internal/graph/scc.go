package graph

// Strongly connected components via an iterative Tarjan algorithm.
//
// SCCs matter twice in the paper: Nuutila's transitive-closure algorithm
// [22] condenses the graph by SCC before propagating reachability, and the
// Appendix B optimisation compresses each SCC of G2 (a clique in the
// closure G2+) into a single bag-labelled node with a self-loop.

// SCCResult describes the strongly connected components of a graph.
type SCCResult struct {
	// Comp maps every node to its component index. Component indices are
	// assigned in reverse topological order of the condensation: if there is
	// a path from component a to component b (a != b), then Comp index of a
	// is greater than that of b.
	Comp []int
	// Members lists the nodes of each component, sorted by ID.
	Members [][]NodeID
}

// NumComponents reports the number of strongly connected components.
func (r *SCCResult) NumComponents() int { return len(r.Members) }

// SCC computes the strongly connected components of g. Members is laid
// out after the DFS by one counting pass over Comp, so each component's
// nodes come out ascending without a per-component sort.
func (g *Graph) SCC() *SCCResult {
	g.Finish()
	n := len(g.nodes)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int, n) // every node is assigned when its component pops
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   = make([]NodeID, 0, n) // Tarjan stack
		k       int                    // components popped so far
		counter int32
	)

	// Explicit DFS frames to avoid recursion on large graphs. A frame
	// holds its node's row, so the page table is read once per node,
	// not once per edge. Neither stack can outgrow n, so both are
	// allocated once.
	type frame struct {
		v    NodeID
		rest []NodeID // the children of v still to process
	}
	frames := make([]frame, 0, n)
	visit := func(v NodeID) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v, rest: g.post.row(v)})
	}

	for s := 0; s < n; s++ {
		if index[s] != unvisited {
			continue
		}
		visit(NodeID(s))
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if len(f.rest) > 0 {
				w := f.rest[0]
				f.rest = f.rest[1:]
				if index[w] == unvisited {
					visit(w)
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			// All children processed: maybe pop a component, then return.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = k
					if w == v {
						break
					}
				}
				k++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return &SCCResult{Comp: comp, Members: membersByCount(comp, k)}
}

// membersByCount groups the nodes by component in one arena: sizes
// first, then a fill in node order, which leaves every group ascending.
func membersByCount(comp []int, k int) [][]NodeID {
	ends := make([]int, k+1)
	for _, c := range comp {
		ends[c+1]++
	}
	for c := 1; c <= k; c++ {
		ends[c] += ends[c-1]
	}
	arena := make([]NodeID, len(comp))
	for v, c := range comp {
		arena[ends[c]] = NodeID(v)
		ends[c]++
	}
	members := make([][]NodeID, k)
	lo := 0
	for c := range members {
		members[c] = arena[lo:ends[c]:ends[c]]
		lo = ends[c]
	}
	return members
}

// Condense builds the condensation DAG of g: one node per SCC, with an edge
// between distinct components whenever some cross-component edge exists.
// Each condensation node's label is empty; callers that need bag labels
// (Appendix B compression) assemble them from SCCResult.Members. The second
// result reports, for every component, whether it contains an internal edge
// (a self-loop or an SCC of size > 1), i.e. whether the component can reach
// itself by a nonempty path. The DAG is built by FromEdges from the
// cross-component edges.
func (g *Graph) Condense() (*Graph, *SCCResult, []bool) {
	scc := g.SCC()
	k := scc.NumComponents()
	selfReach := make([]bool, k)
	cross := make([][2]NodeID, 0, g.edges)
	for v := range g.nodes {
		cf := scc.Comp[v]
		for _, u := range g.post.row(NodeID(v)) {
			if ct := scc.Comp[u]; cf == ct {
				selfReach[cf] = true
			} else {
				cross = append(cross, [2]NodeID{NodeID(cf), NodeID(ct)})
			}
		}
	}
	for i := 0; i < k; i++ {
		if len(scc.Members[i]) > 1 {
			selfReach[i] = true
		}
	}
	return FromEdges(make([]Node, k), cross), scc, selfReach
}
