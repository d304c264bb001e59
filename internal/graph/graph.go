// Package graph provides the directed, node-labelled graph substrate used
// throughout the repository. It matches the paper's graph model
// G = (V, E, L): a set of nodes V, a set of directed edges E ⊆ V × V, and a
// label L(v) for every node v (Section 3.1 of Fan et al., PVLDB 2010).
//
// Nodes are addressed by dense integer identifiers (NodeID) assigned in
// insertion order, which lets the matching algorithms use slices and bitsets
// instead of hash maps on their hot paths. Labels are arbitrary strings and
// may carry per-node weights (used by the maximum-overall-similarity metric)
// and content text (used to derive shingle-based node similarity).
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node within one Graph. IDs are dense: a graph with n
// nodes uses exactly the IDs 0..n-1.
type NodeID int32

// Invalid is returned by lookups that find no node.
const Invalid NodeID = -1

// Node carries the per-node attributes of the paper's model: the label L(v),
// an importance weight w(v) (Section 3.3; defaults to 1), and optional
// free-text content from which textual similarity can be computed
// (Section 3.1 suggests page contents compared by shingles).
type Node struct {
	Label   string
	Weight  float64
	Content string
}

// Adjacency row headers live in fixed-size pages, so that a patched
// version (ApplyPatch) shares every page it does not write with its
// parent and copies one page pointer per page plus the pages it touches,
// instead of one row header per node. 128 rows (3 KB) per page was
// chosen by measurement: see DESIGN.md, "Memory under mutation".
const (
	pageShift = 7
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize][]NodeID

// adjacency holds one direction's rows — the neighbours of each node,
// sorted and without duplicates once finished. The rows that fill whole
// pages are paged; the fewer than pageSize rows after them sit in a
// plain slice, so a graph smaller than a page costs what its rows cost.
type adjacency struct {
	pages []*page
	tail  [][]NodeID
}

func (a *adjacency) row(v NodeID) []NodeID { return *a.slot(v) }

// slot addresses row v for writing. Only the graph that allocated the
// page (or the tail) may write through it.
func (a *adjacency) slot(v NodeID) *[]NodeID {
	if i := int(v) - len(a.pages)<<pageShift; i >= 0 {
		return &a.tail[i]
	}
	return &a.pages[v>>pageShift][v&pageMask]
}

// grow appends one empty row, sealing the tail into a page when that
// fills it; spare is how many more rows the caller expects.
func (a *adjacency) grow(spare int) {
	a.tail = append(a.tail, nil)
	if len(a.tail) == pageSize {
		a.pages = append(a.pages, (*page)(a.tail))
		a.tail = make([][]NodeID, 0, min(spare, pageSize))
	}
}

// Graph is a directed node-labelled graph. The zero value is an empty graph
// ready to use. Graph is not safe for concurrent mutation; concurrent reads
// are safe once construction is complete.
type Graph struct {
	nodes []Node
	// tail is the spare capacity behind nodes that versions made by
	// ApplyPatch grow into; nil on a graph built node by node.
	tail  *nodeTail
	post  adjacency // children
	prev  adjacency // parents
	edges int       // exact once clean; counts duplicates until then

	dirty []bool // builder only: nodes whose rows need sort+dedup on next Finish/lookup
	clean bool   // true when no row is dirty
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		post:  adjacency{tail: make([][]NodeID, 0, min(n, pageSize))},
		prev:  adjacency{tail: make([][]NodeID, 0, min(n, pageSize))},
		dirty: make([]bool, 0, n),
		clean: true,
	}
}

// AddNode appends a node with the given label, weight 1 and no content, and
// returns its identifier.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeFull(Node{Label: label, Weight: 1})
}

// AddNodeFull appends a node with explicit attributes and returns its
// identifier. A zero weight is normalised to 1 so that the similarity metric
// denominator Σ w(v) is always positive on non-empty graphs.
func (g *Graph) AddNodeFull(n Node) NodeID {
	if n.Weight == 0 {
		n.Weight = 1
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.post.grow(cap(g.nodes) - len(g.nodes))
	g.prev.grow(cap(g.nodes) - len(g.nodes))
	g.dirty = append(g.dirty, false)
	return id
}

// AddEdge inserts the directed edge (from, to). Parallel edges are
// tolerated during construction and removed when the adjacency is
// normalised; self-loops are allowed (the paper's product-graph reduction
// treats them specially). AddEdge panics if either endpoint is out of range,
// since that is always a programming error in this codebase.
func (g *Graph) AddEdge(from, to NodeID) {
	g.check(from)
	g.check(to)
	g.dirty[from] = true
	g.dirty[to] = true
	g.clean = false
	p, q := g.post.slot(from), g.prev.slot(to)
	*p = append(*p, to)
	*q = append(*q, from)
	g.edges++ // counts a parallel edge until Finish drops it
}

func (g *Graph) check(v NodeID) {
	if v < 0 || int(v) >= len(g.nodes) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(g.nodes)))
	}
}

// Finish normalises the adjacency lists (sorts them and removes duplicate
// edges) and settles the edge count. It is idempotent and cheap when
// nothing changed since the last call. All read accessors call it lazily, so
// calling Finish explicitly is an optimisation, not a requirement.
func (g *Graph) Finish() {
	if g.clean {
		return
	}
	for v, d := range g.dirty {
		if !d {
			continue
		}
		p, q := g.post.slot(NodeID(v)), g.prev.slot(NodeID(v))
		had := len(*p)
		*p = dedupSorted(*p)
		*q = dedupSorted(*q)
		g.edges -= had - len(*p)
		g.dirty[v] = false
	}
	g.clean = true
}

func dedupSorted(s []NodeID) []NodeID {
	slices.Sort(s)
	return slices.Compact(s)
}

// FromEdges builds a finished graph from its node records and edge list
// in one counting pass per direction — the bulk path that decoders and
// the SCC condensation take instead of AddEdge+Finish, with the same
// result: rows sorted, parallel edges dropped, zero weights normalised
// to 1. Rows are cut from one arena per direction, as Clone lays them
// out. A row whose entries arrive strictly ascending (every row, when
// edges come in (from, to) order, as Edges and the store codec emit
// them) is never sorted; any other row is sorted and deduplicated.
// FromEdges takes ownership of nodes and panics on an endpoint out of
// range, like AddEdge.
func FromEdges(nodes []Node, edges [][2]NodeID) *Graph {
	n := len(nodes)
	for i := range nodes {
		if nodes[i].Weight == 0 {
			nodes[i].Weight = 1
		}
	}
	g := &Graph{nodes: nodes, dirty: make([]bool, n), clean: true}
	for _, e := range edges {
		g.check(e[0])
		g.check(e[1])
	}
	g.post, g.edges = buildRows(n, edges, 0)
	g.prev, _ = buildRows(n, edges, 1)
	return g
}

// buildRows lays out one direction of edges over n nodes — rows keyed
// by e[key], holding e[1-key] — and reports the entries kept after
// deduplication.
func buildRows(n int, edges [][2]NodeID, key int) (adjacency, int) {
	// ends[v] holds row v's start after the prefix sum and its end once
	// the fill has advanced every cursor.
	ends := make([]int, n+1)
	for _, e := range edges {
		ends[e[key]+1]++
	}
	for v := 1; v <= n; v++ {
		ends[v] += ends[v-1]
	}
	arena := make([]NodeID, len(edges))
	for _, e := range edges {
		v := e[key]
		arena[ends[v]] = e[1-key]
		ends[v]++
	}
	a := adjacency{pages: make([]*page, n>>pageShift), tail: make([][]NodeID, n&pageMask)}
	for i := range a.pages {
		a.pages[i] = new(page)
	}
	kept, lo := 0, 0
	for v := 0; v < n; v++ {
		row := arena[lo:ends[v]:ends[v]]
		lo = ends[v]
		if !strictlyAscending(row) {
			row = slices.Clip(dedupSorted(row))
		}
		if len(row) > 0 {
			*a.slot(NodeID(v)) = row
		}
		kept += len(row)
	}
	return a, kept
}

func strictlyAscending(row []NodeID) bool {
	for i := 1; i < len(row); i++ {
		if row[i] <= row[i-1] {
			return false
		}
	}
	return true
}

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports |E| (distinct directed edges).
func (g *Graph) NumEdges() int {
	g.Finish()
	return g.edges
}

// Label returns L(v).
func (g *Graph) Label(v NodeID) string {
	g.check(v)
	return g.nodes[v].Label
}

// Weight returns w(v), the node's relative importance (Section 3.3).
func (g *Graph) Weight(v NodeID) float64 {
	g.check(v)
	return g.nodes[v].Weight
}

// SetWeight updates w(v).
func (g *Graph) SetWeight(v NodeID, w float64) {
	g.check(v)
	g.nodes[v].Weight = w
}

// Content returns the free-text content attached to v (may be empty).
func (g *Graph) Content(v NodeID) string {
	g.check(v)
	return g.nodes[v].Content
}

// SetContent attaches free-text content to v.
func (g *Graph) SetContent(v NodeID, text string) {
	g.check(v)
	g.nodes[v].Content = text
}

// Node returns a copy of the full node record.
func (g *Graph) Node(v NodeID) Node {
	g.check(v)
	return g.nodes[v]
}

// Post returns the children of v ("post" in the paper's adjacency list H1,
// Fig. 3 lines 2–3): the nodes u with an edge (v, u). The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Post(v NodeID) []NodeID {
	g.check(v)
	g.Finish()
	return g.post.row(v)
}

// Prev returns the parents of v: the nodes u with an edge (u, v). The
// returned slice is shared with the graph and must not be modified.
func (g *Graph) Prev(v NodeID) []NodeID {
	g.check(v)
	g.Finish()
	return g.prev.row(v)
}

// HasEdge reports whether the directed edge (from, to) exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	g.check(from)
	g.check(to)
	g.Finish()
	return hasSorted(g.post.row(from), to)
}

// OutDegree reports |post(v)|.
func (g *Graph) OutDegree(v NodeID) int { return len(g.Post(v)) }

// InDegree reports |prev(v)|.
func (g *Graph) InDegree(v NodeID) int { return len(g.Prev(v)) }

// Degree reports the total degree |prev(v)| + |post(v)|, the quantity used
// by the skeleton-extraction rule of Section 6.
func (g *Graph) Degree(v NodeID) int { return g.InDegree(v) + g.OutDegree(v) }

// Edges invokes fn for every directed edge in increasing (from, to) order.
// Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(from, to NodeID) bool) {
	g.Finish()
	for v := range g.nodes {
		for _, u := range g.post.row(NodeID(v)) {
			if !fn(NodeID(v), u) {
				return
			}
		}
	}
}

// Nodes invokes fn for every node in increasing ID order. Iteration stops
// early if fn returns false.
func (g *Graph) Nodes(fn func(v NodeID) bool) {
	for v := range g.nodes {
		if !fn(NodeID(v)) {
			return
		}
	}
}

// FindLabel returns the first node carrying the given label, or Invalid.
// It is a convenience for tests and examples, not a hot-path operation.
func (g *Graph) FindLabel(label string) NodeID {
	for v := range g.nodes {
		if g.nodes[v].Label == label {
			return NodeID(v)
		}
	}
	return Invalid
}

// Clone returns a deep copy of the graph. Each adjacency direction is
// copied into one shared arena (one allocation per page instead of one
// per node — the difference between microseconds and tens of
// milliseconds at webgraph scale); rows are full-capacity sub-slices,
// so appending to one reallocates instead of clobbering its arena
// neighbour.
func (g *Graph) Clone() *Graph {
	g.Finish()
	c := New(len(g.nodes))
	c.nodes = append(c.nodes, g.nodes...)
	c.post = g.post.clone(g.edges)
	c.prev = g.prev.clone(g.edges)
	c.dirty = make([]bool, len(g.nodes))
	c.edges = g.edges
	return c
}

// clone copies a, whose rows hold total entries between them.
func (a *adjacency) clone(total int) adjacency {
	arena := make([]NodeID, total)
	cloneRows := func(dst, src [][]NodeID) {
		for j, r := range src {
			if len(r) > 0 {
				n := copy(arena, r)
				dst[j], arena = arena[:n:n], arena[n:]
			}
		}
	}
	out := adjacency{pages: make([]*page, len(a.pages)), tail: make([][]NodeID, len(a.tail))}
	for i, pg := range a.pages {
		out.pages[i] = new(page)
		cloneRows(out.pages[i][:], pg[:])
	}
	cloneRows(out.tail, a.tail)
	return out
}

// InducedSubgraph returns the subgraph induced by keep (G1[H] in the
// paper's notation) together with the mapping from new IDs back to the
// originals. Nodes retain labels, weights and content; only edges with both
// endpoints in keep survive.
func (g *Graph) InducedSubgraph(keep []NodeID) (*Graph, []NodeID) {
	g.Finish()
	old2new := make(map[NodeID]NodeID, len(keep))
	sub := New(len(keep))
	orig := make([]NodeID, 0, len(keep))
	for _, v := range keep {
		g.check(v)
		if _, dup := old2new[v]; dup {
			continue
		}
		nv := sub.AddNodeFull(g.nodes[v])
		old2new[v] = nv
		orig = append(orig, v)
	}
	for _, v := range orig {
		for _, u := range g.post.row(v) {
			if nu, ok := old2new[u]; ok {
				sub.AddEdge(old2new[v], nu)
			}
		}
	}
	sub.Finish()
	return sub, orig
}

// Reverse returns the graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	g.Finish()
	r := g.Clone()
	r.post, r.prev = r.prev, r.post
	return r
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d)", g.NumNodes(), g.NumEdges())
}
