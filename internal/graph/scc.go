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

// SCC computes the strongly connected components of g.
func (g *Graph) SCC() *SCCResult {
	g.Finish()
	n := len(g.nodes)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := 0; i < n; i++ {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var (
		stack   []NodeID // Tarjan stack
		members [][]NodeID
		counter int
	)

	// Explicit DFS frames to avoid recursion on large graphs.
	type frame struct {
		v    NodeID
		next int // next child index in post[v] to process
	}
	var frames []frame

	for s := 0; s < n; s++ {
		if index[s] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: NodeID(s)})
		index[s] = counter
		low[s] = counter
		counter++
		stack = append(stack, NodeID(s))
		onStack[s] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if row := g.post.row(v); f.next < len(row) {
				w := row[f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			// All children processed: maybe pop a component, then return.
			if low[v] == index[v] {
				id := len(members)
				var ms []NodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					ms = append(ms, w)
					if w == v {
						break
					}
				}
				members = append(members, dedupSorted(ms))
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
	return &SCCResult{Comp: comp, Members: members}
}

// Condense builds the condensation DAG of g: one node per SCC, with an edge
// between distinct components whenever some cross-component edge exists.
// Each condensation node's label is empty; callers that need bag labels
// (Appendix B compression) assemble them from SCCResult.Members. The second
// result reports, for every component, whether it contains an internal edge
// (a self-loop or an SCC of size > 1), i.e. whether the component can reach
// itself by a nonempty path.
func (g *Graph) Condense() (*Graph, *SCCResult, []bool) {
	scc := g.SCC()
	k := scc.NumComponents()
	dag := New(k)
	for i := 0; i < k; i++ {
		dag.AddNode("")
	}
	selfReach := make([]bool, k)
	g.Edges(func(from, to NodeID) bool {
		cf, ct := scc.Comp[from], scc.Comp[to]
		if cf == ct {
			selfReach[cf] = true
		} else {
			dag.AddEdge(NodeID(cf), NodeID(ct))
		}
		return true
	})
	for i := 0; i < k; i++ {
		if len(scc.Members[i]) > 1 {
			selfReach[i] = true
		}
	}
	dag.Finish()
	return dag, scc, selfReach
}
