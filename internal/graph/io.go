package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// JSON wire format. The format is deliberately simple so data sets produced
// by cmd/datagen can be inspected and edited by hand:
//
//	{
//	  "nodes": [{"label": "books", "weight": 1, "content": "..."}, ...],
//	  "edges": [[0, 1], [1, 2], ...]
//	}

type jsonNode struct {
	Label   string  `json:"label"`
	Weight  float64 `json:"weight,omitempty"`
	Content string  `json:"content,omitempty"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int32 `json:"edges"`
}

// MarshalJSON encodes the graph in the documented wire format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	g.Finish()
	jg := jsonGraph{
		Nodes: make([]jsonNode, g.NumNodes()),
		Edges: make([][2]int32, 0, g.NumEdges()),
	}
	for v := 0; v < g.NumNodes(); v++ {
		n := g.nodes[v]
		jg.Nodes[v] = jsonNode{Label: n.Label, Weight: n.Weight, Content: n.Content}
	}
	g.Edges(func(from, to NodeID) bool {
		jg.Edges = append(jg.Edges, [2]int32{int32(from), int32(to)})
		return true
	})
	return json.Marshal(jg)
}

// UnmarshalJSON decodes the documented wire format, replacing the receiver's
// contents.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decoding: %w", err)
	}
	ng := New(len(jg.Nodes))
	for _, n := range jg.Nodes {
		ng.AddNodeFull(Node{Label: n.Label, Weight: n.Weight, Content: n.Content})
	}
	for i, e := range jg.Edges {
		from, to := NodeID(e[0]), NodeID(e[1])
		if from < 0 || int(from) >= len(jg.Nodes) || to < 0 || int(to) >= len(jg.Nodes) {
			return fmt.Errorf("graph: edge %d (%d→%d) references a node outside [0,%d)", i, from, to, len(jg.Nodes))
		}
		ng.AddEdge(from, to)
	}
	ng.Finish()
	*g = *ng
	return nil
}

// WriteJSON writes the graph to w in the documented wire format.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadJSON reads a graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading: %w", err)
	}
	g := New(0)
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}

// DOT renders the graph in Graphviz DOT syntax for visual inspection.
// Node names are "n<ID>" with the label attribute set to L(v).
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, g.nodes[v].Label)
	}
	g.Edges(func(from, to NodeID) bool {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", from, to)
		return true
	})
	b.WriteString("}\n")
	return b.String()
}

// FromEdgeList builds a graph from parallel label and edge slices. It is the
// terse constructor used pervasively by tests and examples:
//
//	g := graph.FromEdgeList([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
func FromEdgeList(labels []string, edges [][2]int) *Graph {
	nodes := make([]Node, len(labels))
	for i, l := range labels {
		nodes[i] = Node{Label: l, Weight: 1}
	}
	es := make([][2]NodeID, len(edges))
	for i, e := range edges {
		es[i] = [2]NodeID{NodeID(e[0]), NodeID(e[1])}
	}
	return FromEdges(nodes, es)
}

// Labels returns the labels of all nodes indexed by NodeID.
func (g *Graph) Labels() []string {
	out := make([]string, g.NumNodes())
	for v := range out {
		out[v] = g.nodes[v].Label
	}
	return out
}

// LabelSet returns the distinct labels in sorted order.
func (g *Graph) LabelSet() []string {
	set := make(map[string]struct{})
	for v := range g.nodes {
		set[g.nodes[v].Label] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two graphs have identical node records and edge
// sets. Intended for tests (round-trip serialisation, clone semantics).
func Equal(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.nodes[v] != b.nodes[v] {
			return false
		}
		ap, bp := a.Post(NodeID(v)), b.Post(NodeID(v))
		if len(ap) != len(bp) {
			return false
		}
		for i := range ap {
			if ap[i] != bp[i] {
				return false
			}
		}
	}
	return true
}
