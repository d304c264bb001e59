package graph

import (
	"fmt"
	"sync/atomic"
)

// ContentUpdate replaces the free-text content of one existing node.
type ContentUpdate struct {
	Node    NodeID
	Content string
}

// Patch is an in-place edit of a graph: nodes appended, edge additions
// and deletions, and content rewrites. It is the unit of live mutation
// in the serving layer — a registered data graph evolves by patches
// (pages added, links rewired, text edited) instead of being removed
// and re-uploaded wholesale — and the unit the write-ahead log records
// for crash recovery.
//
// Semantics, in application order:
//
//  1. AddNodes appends nodes; the i-th new node gets ID oldN + i, so a
//     patch can wire its own additions.
//  2. SetContent rewrites node contents (old or newly added nodes).
//  3. DelEdges removes edges; deleting an absent edge is an error, so a
//     mistyped delete surfaces instead of silently succeeding.
//  4. AddEdges inserts edges; duplicates of surviving edges are
//     tolerated (the adjacency normalisation dedups), so an add after a
//     delete of the same edge re-creates it.
type Patch struct {
	AddNodes   []Node
	SetContent []ContentUpdate
	DelEdges   [][2]NodeID
	AddEdges   [][2]NodeID
}

// Empty reports whether the patch changes nothing.
func (p *Patch) Empty() bool {
	return len(p.AddNodes) == 0 && len(p.SetContent) == 0 &&
		len(p.DelEdges) == 0 && len(p.AddEdges) == 0
}

// Validate checks the patch against a graph of n nodes without applying
// it: every referenced node must exist (counting the patch's own
// additions) and no edge endpoint may be negative. Edge existence is
// not checked here — DelEdges is validated during ApplyPatch, against
// the state the deletes actually run on.
func (p *Patch) Validate(n int) error {
	total := n + len(p.AddNodes)
	checkNode := func(what string, v NodeID) error {
		if v < 0 || int(v) >= total {
			return fmt.Errorf("graph: patch %s references node %d outside [0,%d)", what, v, total)
		}
		return nil
	}
	for _, cu := range p.SetContent {
		if err := checkNode("set_content", cu.Node); err != nil {
			return err
		}
	}
	for _, e := range p.DelEdges {
		if err := checkNode("del_edges", e[0]); err != nil {
			return err
		}
		if err := checkNode("del_edges", e[1]); err != nil {
			return err
		}
	}
	for _, e := range p.AddEdges {
		if err := checkNode("add_edges", e[0]); err != nil {
			return err
		}
		if err := checkNode("add_edges", e[1]); err != nil {
			return err
		}
	}
	return nil
}

// ApplyPatch returns a new graph with the patch applied; the receiver
// is not modified. Registered graphs are shared by concurrent readers
// and cached closures, so mutation is copy-on-write: the serving
// catalog swaps the returned graph in under its lock and maintains
// the derived state. Application is deterministic — replaying the same
// patch against the same graph yields an identical graph, which is
// what WAL recovery relies on.
//
// The new version shares with the receiver everything the patch does
// not write, so it costs O(touched) time and memory:
//
//   - adjacency: the page tables are copied (one pointer per pageSize
//     nodes), and of the pages — or the short tail after them — only
//     those holding a row the patch edits; of the rows only the edited
//     ones. Edits keep rows sorted and the edge count exact as they go,
//     so no Finish pass is needed.
//   - node attributes: shared outright by a patch that neither adds a
//     node nor sets content. Added nodes are written into spare capacity
//     behind the receiver's nodes (amortised O(added); see nodeTail).
//     Setting the content of a node the receiver already has is the one
//     edit that copies all n attributes, because Label, Weight and
//     Content stay one flat slice for the matrix scans.
//
// The sharing is safe under the package's contract that a finished
// graph is never mutated in place — both graphs, like all registered
// graphs, are immutable from here on, and readers still holding the
// receiver (or any older version) are undisturbed.
func (g *Graph) ApplyPatch(p *Patch) (*Graph, error) {
	n := g.NumNodes()
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	g.Finish()
	ng := &Graph{nodes: g.nodes, tail: g.tail, edges: g.edges, clean: true}
	post, prev := cow{cur: g.post, base: g.post.pages}, cow{cur: g.prev, base: g.prev.pages}
	for _, e := range p.DelEdges {
		// An edge at a node this patch adds cannot exist yet.
		if int(e[0]) >= n || int(e[1]) >= n || !removeSorted(post.own(e[0]), e[1]) {
			return nil, fmt.Errorf("graph: patch deletes absent edge %d→%d", e[0], e[1])
		}
		removeSorted(prev.own(e[1]), e[0])
		ng.edges--
	}
	post.grow(len(p.AddNodes))
	prev.grow(len(p.AddNodes))
	for _, e := range p.AddEdges {
		if !hasSorted(post.cur.row(e[0]), e[1]) {
			insertSorted(post.own(e[0]), e[1])
			insertSorted(prev.own(e[1]), e[0])
			ng.edges++
		}
	}
	ng.post, ng.prev = post.cur, prev.cur
	// Nodes last: every step that can fail is behind us, so a claim on
	// the shared spare capacity is never wasted.
	ng.patchNodes(p, n)
	return ng, nil
}

// cow builds one adjacency direction of a patched version: cur starts
// as the parent's and replaces the page table, the tail, pages and rows
// by private copies the first time each is written.
type cow struct {
	cur      adjacency
	base     []*page             // the parent's page table
	ownPages bool                // cur.pages is private
	ownTail  bool                // cur.tail is private
	rows     map[NodeID]struct{} // rows already copied
}

func (c *cow) privateTail(extra int) {
	if !c.ownTail {
		c.cur.tail = append(make([][]NodeID, 0, len(c.cur.tail)+extra), c.cur.tail...)
		c.ownTail = true
	}
}

func (c *cow) privatePages(extra int) {
	if !c.ownPages {
		c.cur.pages = append(make([]*page, 0, len(c.base)+extra), c.base...)
		c.ownPages = true
	}
}

// grow appends k empty rows for the nodes a patch adds.
func (c *cow) grow(k int) {
	if k == 0 {
		return
	}
	c.privateTail(k)
	if sealed := (len(c.cur.tail) + k) >> pageShift; sealed > 0 {
		c.privatePages(sealed)
	}
	for ; k > 0; k-- {
		c.cur.grow(k - 1)
	}
}

// own returns row v's slot in the version being built, private down to
// the row's backing array.
func (c *cow) own(v NodeID) *[]NodeID {
	if i := int(v >> pageShift); i >= len(c.cur.pages) {
		c.privateTail(0)
	} else {
		c.privatePages(0)
		if i < len(c.base) && c.cur.pages[i] == c.base[i] { // else sealed by this patch
			cp := *c.base[i]
			c.cur.pages[i] = &cp
		}
	}
	slot := c.cur.slot(v)
	if _, mine := c.rows[v]; !mine {
		if c.rows == nil {
			c.rows = make(map[NodeID]struct{})
		}
		c.rows[v] = struct{}{}
		*slot = append(make([]NodeID, 0, len(*slot)+1), *slot...)
	}
	return slot
}

// nodeTail is the spare capacity behind the node slice of a graph
// version. The versions of one lineage share one backing array: a patch
// that adds nodes claims the slots after its parent's last node and
// writes them in place — no reader of an older version looks past its
// own length — so growth costs amortised O(added) instead of an O(n)
// copy per patch. Only one successor of a version can claim a slot; a
// second one (a lost commit race, a what-if apply) copies.
type nodeTail struct {
	buf  []Node       // the whole backing array, len == cap
	used atomic.Int64 // slots of buf handed out
}

// patchNodes gives g, so far sharing the n node attributes of its
// parent, the nodes p adds and the contents p sets.
func (g *Graph) patchNodes(p *Patch, n int) {
	if len(p.AddNodes) == 0 && len(p.SetContent) == 0 {
		return
	}
	grown := n + len(p.AddNodes)
	private := false
	for _, cu := range p.SetContent {
		private = private || int(cu.Node) < n
	}
	t := g.tail
	fits := t != nil && grown <= len(t.buf)
	if fits && !private && t.used.CompareAndSwap(int64(n), int64(grown)) {
		g.nodes = t.buf[:grown:grown]
	} else {
		size := grown
		if !fits {
			// Out of room: leave slack for the appends to come. A copy
			// forced by a content rewrite or a slot a sibling took is
			// exact, and gets its slack when it first runs out.
			size += grown/4 + 4
		}
		buf := make([]Node, size)
		copy(buf, g.nodes[:n])
		g.tail = &nodeTail{buf: buf}
		g.tail.used.Store(int64(grown))
		g.nodes = buf[:grown:grown]
	}
	for i, nd := range p.AddNodes {
		if nd.Weight == 0 {
			nd.Weight = 1 // as AddNodeFull
		}
		g.nodes[n+i] = nd
	}
	for _, cu := range p.SetContent {
		g.nodes[cu.Node].Content = cu.Content
	}
}

func searchSorted(row []NodeID, x NodeID) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func hasSorted(row []NodeID, x NodeID) bool {
	i := searchSorted(row, x)
	return i < len(row) && row[i] == x
}

// insertSorted adds x, which the sorted slice *s must not hold yet.
func insertSorted(s *[]NodeID, x NodeID) {
	i := searchSorted(*s, x)
	row := append(*s, 0)
	copy(row[i+1:], row[i:])
	row[i] = x
	*s = row
}

// removeSorted deletes x from the sorted slice *s, reporting whether it
// was present.
func removeSorted(s *[]NodeID, x NodeID) bool {
	row := *s
	i := searchSorted(row, x)
	if i >= len(row) || row[i] != x {
		return false
	}
	*s = append(row[:i], row[i+1:]...)
	return true
}
