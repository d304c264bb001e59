package graph

import (
	"math/rand"
	"testing"
)

func TestApplyPatchBasics(t *testing.T) {
	g := FromEdgeList([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	p := &Patch{
		AddNodes:   []Node{{Label: "D", Weight: 2, Content: "new page"}},
		SetContent: []ContentUpdate{{Node: 0, Content: "rewritten"}},
		DelEdges:   [][2]NodeID{{2, 0}},
		AddEdges:   [][2]NodeID{{2, 3}, {3, 0}},
	}
	ng, err := g.ApplyPatch(p)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver is untouched.
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("receiver mutated: %v", g)
	}
	if g.Content(0) != "" {
		t.Fatalf("receiver content mutated: %q", g.Content(0))
	}
	if ng.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", ng.NumNodes())
	}
	if ng.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", ng.NumEdges())
	}
	if ng.HasEdge(2, 0) {
		t.Fatal("deleted edge 2→0 survived")
	}
	if !ng.HasEdge(2, 3) || !ng.HasEdge(3, 0) {
		t.Fatal("added edges missing")
	}
	if ng.Content(0) != "rewritten" {
		t.Fatalf("content(0) = %q", ng.Content(0))
	}
	if ng.Label(3) != "D" || ng.Weight(3) != 2 || ng.Content(3) != "new page" {
		t.Fatalf("added node wrong: %+v", ng.Node(3))
	}
	// Prev rows stay consistent with Post rows after deletion.
	if got := ng.Prev(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("prev(0) = %v, want [3]", got)
	}
}

func TestApplyPatchValidation(t *testing.T) {
	g := FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
	cases := []struct {
		name string
		p    Patch
	}{
		{"add edge out of range", Patch{AddEdges: [][2]NodeID{{0, 5}}}},
		{"add edge negative", Patch{AddEdges: [][2]NodeID{{-1, 0}}}},
		{"del edge out of range", Patch{DelEdges: [][2]NodeID{{3, 0}}}},
		{"del absent edge", Patch{DelEdges: [][2]NodeID{{1, 0}}}},
		{"set content out of range", Patch{SetContent: []ContentUpdate{{Node: 9}}}},
	}
	for _, tc := range cases {
		if _, err := g.ApplyPatch(&tc.p); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Edges may target the patch's own added nodes.
	ng, err := g.ApplyPatch(&Patch{AddNodes: []Node{{Label: "C"}}, AddEdges: [][2]NodeID{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ng.HasEdge(1, 2) {
		t.Fatal("edge to added node missing")
	}
}

func TestApplyPatchDeleteThenAdd(t *testing.T) {
	g := FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
	ng, err := g.ApplyPatch(&Patch{DelEdges: [][2]NodeID{{0, 1}}, AddEdges: [][2]NodeID{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ng.HasEdge(0, 1) {
		t.Fatal("delete-then-add should re-create the edge")
	}
	if ng.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", ng.NumEdges())
	}
}

func TestApplyPatchEmpty(t *testing.T) {
	g := FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
	p := &Patch{}
	if !p.Empty() {
		t.Fatal("zero patch not Empty")
	}
	ng, err := g.ApplyPatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, ng) {
		t.Fatal("empty patch changed the graph")
	}
}

// TestApplyPatchSharesUntouchedRows pins the copy-on-write contract:
// adjacency rows the patch does not touch are physically shared with
// the receiver (the storm-throughput optimisation), touched rows are
// private copies, and the receiver is bit-for-bit unchanged.
func TestApplyPatchSharesUntouchedRows(t *testing.T) {
	g := FromEdgeList([]string{"A", "B", "C", "D"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	before := g.Clone()
	ng, err := g.ApplyPatch(&Patch{
		DelEdges: [][2]NodeID{{0, 2}},
		AddEdges: [][2]NodeID{{1, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, before) {
		t.Fatal("patching mutated the receiver")
	}
	// Node 2's successor row was never written: shared.
	if &g.Post(2)[0] != &ng.Post(2)[0] {
		t.Fatal("untouched row was copied")
	}
	// Node 0 lost an out-edge and node 1 gained one: private copies.
	if &g.Post(0)[0] == &ng.Post(0)[0] {
		t.Fatal("deleted-from row still shared")
	}
	if &g.Post(1)[0] == &ng.Post(1)[0] {
		t.Fatal("added-to row still shared")
	}
	if g.HasEdge(0, 2) != true || ng.HasEdge(0, 2) != false || !ng.HasEdge(1, 3) {
		t.Fatal("patch semantics broken")
	}
}

// TestApplyPatchEquivalence quickchecks copy-on-write patching against
// rebuilding the graph from scratch with the same final edge set.
func TestApplyPatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		g := New(n)
		labels := make([]string, n)
		for i := range labels {
			labels[i] = string(rune('A' + i))
			g.AddNode(labels[i])
		}
		type edge = [2]NodeID
		present := map[edge]bool{}
		for i := 0; i < n*2; i++ {
			e := edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
			g.AddEdge(e[0], e[1])
			present[e] = true
		}
		g.Finish()

		var p Patch
		add := 1 + rng.Intn(3)
		for i := 0; i < add; i++ {
			p.AddNodes = append(p.AddNodes, Node{Label: "N", Weight: 1})
		}
		total := n + add
		// Delete a random subset of existing edges.
		for e := range present {
			if rng.Intn(3) == 0 {
				p.DelEdges = append(p.DelEdges, e)
				delete(present, e)
			}
		}
		for i := 0; i < 4; i++ {
			e := edge{NodeID(rng.Intn(total)), NodeID(rng.Intn(total))}
			p.AddEdges = append(p.AddEdges, e)
			present[e] = true
		}

		got, err := g.ApplyPatch(&p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := New(total)
		for v := 0; v < n; v++ {
			want.AddNodeFull(g.Node(NodeID(v)))
		}
		for _, nd := range p.AddNodes {
			want.AddNodeFull(nd)
		}
		for e := range present {
			want.AddEdge(e[0], e[1])
		}
		want.Finish()
		if !Equal(got, want) {
			t.Fatalf("trial %d: patched graph %v != rebuilt %v", trial, got, want)
		}
	}
}

// TestApplyPatchSharesNodes pins what a version shares of its parent's
// node attributes: everything when the patch adds no node and sets no
// content, the common prefix when it appends (the first successor
// writes into spare capacity, a second successor of the same parent
// must not), nothing when it rewrites the content of an old node.
func TestApplyPatchSharesNodes(t *testing.T) {
	g := FromEdgeList([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
	edgeOnly, err := g.ApplyPatch(&Patch{AddEdges: [][2]NodeID{{2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if &edgeOnly.nodes[0] != &g.nodes[0] {
		t.Fatal("edge-only patch copied the node attributes")
	}

	// The first append on a built graph copies once and leaves slack …
	v1, err := edgeOnly.ApplyPatch(&Patch{AddNodes: []Node{{Label: "D"}}})
	if err != nil {
		t.Fatal(err)
	}
	// … which the next appends grow into without copying.
	v2, _ := v1.ApplyPatch(&Patch{AddNodes: []Node{{Label: "E", Content: "e"}}, AddEdges: [][2]NodeID{{0, 4}}})
	v3, _ := v2.ApplyPatch(&Patch{AddNodes: []Node{{Label: "F"}}, SetContent: []ContentUpdate{{Node: 5, Content: "f"}}})
	if &v2.nodes[0] != &v1.nodes[0] || &v3.nodes[0] != &v1.nodes[0] {
		t.Fatal("appending to a version with spare capacity copied the node attributes")
	}
	// A second successor of v1 cannot have the slot v2 took.
	sib, _ := v1.ApplyPatch(&Patch{AddNodes: []Node{{Label: "X"}}})
	if &sib.nodes[0] == &v1.nodes[0] {
		t.Fatal("two successors of one version share an appended slot")
	}
	if v2.Label(4) != "E" || sib.Label(4) != "X" || v3.Label(5) != "F" || v3.Content(5) != "f" || v3.Weight(5) != 1 {
		t.Fatalf("appended nodes wrong: v2[4]=%q sib[4]=%q v3[5]=%q/%q/%v",
			v2.Label(4), sib.Label(4), v3.Label(5), v3.Content(5), v3.Weight(5))
	}
	if v1.NumNodes() != 4 || v2.NumNodes() != 5 || sib.NumNodes() != 5 || v3.NumNodes() != 6 {
		t.Fatal("a version's node count moved with a successor's append")
	}

	// Rewriting an old node's content is private to the new version.
	re, _ := v3.ApplyPatch(&Patch{SetContent: []ContentUpdate{{Node: 4, Content: "rewritten"}}})
	if v3.Content(4) != "e" || v2.Content(4) != "e" || re.Content(4) != "rewritten" {
		t.Fatalf("set_content leaked: v2=%q v3=%q re=%q", v2.Content(4), v3.Content(4), re.Content(4))
	}
	// A failed patch must not use up the spare slot of its parent.
	if _, err := v3.ApplyPatch(&Patch{AddNodes: []Node{{Label: "G"}}, DelEdges: [][2]NodeID{{0, 6}}}); err == nil {
		t.Fatal("deleting an edge at an added node succeeded")
	}
	ok, _ := v3.ApplyPatch(&Patch{AddNodes: []Node{{Label: "G"}}})
	if &ok.nodes[0] != &v3.nodes[0] || ok.Label(6) != "G" {
		t.Fatal("a failed patch consumed its parent's spare capacity")
	}
}

// TestApplyPatchLineage quickchecks long patch sequences — appends that
// cross a page boundary, deletes, duplicate adds, content rewrites —
// against a graph rebuilt from the final edge set, and checks that every
// superseded version still equals the deep copy taken when it was
// current.
func TestApplyPatchLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type edge = [2]NodeID
	for trial := 0; trial < 8; trial++ {
		n := pageSize - 6 + rng.Intn(4)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode("L")
		}
		present := map[edge]bool{}
		for i := 0; i < 3*n; i++ {
			e := edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
			g.AddEdge(e[0], e[1])
			present[e] = true
		}
		g.Finish()
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = g.Node(NodeID(v))
		}
		var versions, snapshots []*Graph
		for step := 0; step < 60; step++ {
			versions, snapshots = append(versions, g), append(snapshots, g.Clone())
			var p Patch
			if rng.Intn(3) == 0 {
				nd := Node{Label: "N", Weight: float64(1 + rng.Intn(3)), Content: "c"}
				p.AddNodes = append(p.AddNodes, nd)
				nodes = append(nodes, nd)
			}
			total := len(nodes)
			if rng.Intn(6) == 0 {
				v := NodeID(rng.Intn(total))
				p.SetContent = append(p.SetContent, ContentUpdate{Node: v, Content: "rewritten"})
				nodes[v].Content = "rewritten"
			}
			for e := range present {
				if rng.Intn(40) == 0 {
					p.DelEdges = append(p.DelEdges, e)
					delete(present, e)
				}
			}
			for i := rng.Intn(4); i > 0; i-- {
				e := edge{NodeID(rng.Intn(total)), NodeID(rng.Intn(total))}
				p.AddEdges = append(p.AddEdges, e)
				present[e] = true
			}
			if p.Empty() {
				continue
			}
			ng, err := g.ApplyPatch(&p)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			g = ng
		}
		want := New(len(nodes))
		for _, nd := range nodes {
			want.AddNodeFull(nd)
		}
		for e := range present {
			want.AddEdge(e[0], e[1])
		}
		if !Equal(g, want) || !Equal(g.Reverse(), want.Reverse()) {
			t.Fatalf("trial %d: patched lineage %v != rebuilt %v", trial, g, want)
		}
		for i, old := range versions {
			if !Equal(old, snapshots[i]) || !Equal(old.Reverse(), snapshots[i].Reverse()) {
				t.Fatalf("trial %d: version %d changed after it was superseded", trial, i)
			}
		}
	}
}

// TestApplyPatchReadersKeepOldVersions runs readers over superseded
// versions while the lineage keeps growing (run under -race): a version
// is immutable from the moment ApplyPatch returns it, including the
// node slots its successors append behind it.
func TestApplyPatchReadersKeepOldVersions(t *testing.T) {
	g := sparseGraph(300, 5)
	versions := make(chan *Graph, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range versions {
			n, edges := v.NumNodes(), 0
			for u := 0; u < n; u++ {
				if v.Label(NodeID(u)) == "" {
					t.Error("reader saw an unwritten node")
				}
				edges += len(v.Post(NodeID(u)))
			}
			if edges != v.NumEdges() {
				t.Errorf("version with %d nodes: %d edges in rows, NumEdges %d", n, edges, v.NumEdges())
			}
		}
	}()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		n := g.NumNodes()
		p := &Patch{AddEdges: [][2]NodeID{{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}}}
		if i%3 == 0 {
			p.AddNodes = []Node{{Label: "new"}}
			p.AddEdges = append(p.AddEdges, [2]NodeID{NodeID(rng.Intn(n)), NodeID(n)})
		}
		ng, err := g.ApplyPatch(p)
		if err != nil {
			t.Fatal(err)
		}
		versions <- g
		g = ng
	}
	close(versions)
	<-done
}
