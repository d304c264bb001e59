// Package graphmatch implements p-homomorphism (p-hom) and 1-1
// p-homomorphism matching from "Graph Homomorphism Revisited for Graph
// Matching" (Fan, Li, Ma, Wang, Wu; PVLDB 3(1), 2010).
//
// The notions revise classical graph homomorphism and subgraph
// isomorphism for similarity-based graph matching: a mapping σ from
// pattern G1 to data graph G2 is a p-hom mapping when every node maps to
// a sufficiently similar node (mat(v, σ(v)) ≥ ξ for a node-similarity
// matrix and threshold) and every pattern edge maps to a *nonempty path*
// in the data graph, not necessarily a single edge. The 1-1 variant
// additionally requires σ injective.
//
// Because deciding (1-1) p-hom is NP-complete and the optimisation
// variants are even hard to approximate, the package exposes the paper's
// approximation algorithms, which carry an O(log²(n1·n2)/(n1·n2))
// quality guarantee:
//
//	m := graphmatch.NewMatcher(pattern, data, mat, 0.75)
//	sigma := m.MaxCard()            // compMaxCard   (CPH)
//	sigma = m.MaxCard11()           // compMaxCard¹⁻¹ (CPH1-1)
//	sigma = m.MaxSim()              // compMaxSim    (SPH)
//	sigma = m.MaxSim11()            // compMaxSim¹⁻¹ (SPH1-1)
//	q := m.QualCard(sigma)          // |dom σ| / |V1|
//
// Exact (exponential) decision procedures, the quantitative similarity
// metrics qualCard/qualSim, similarity-matrix constructors (label
// equality, shingle-based content similarity) and the graph-simulation
// baseline are also exposed. See the examples/ directory for complete
// programs and DESIGN.md for the paper-to-code map.
package graphmatch

import (
	"context"

	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/simulation"
	"graphmatch/internal/vertexsim"
)

// Re-exported substrate types. Aliases keep one canonical implementation
// in internal/ while giving users stable names in this package.
type (
	// Graph is a directed, node-labelled graph; nodes carry optional
	// weights (for qualSim) and text content (for shingle similarity).
	Graph = graph.Graph
	// NodeID identifies a node within one Graph (dense, 0-based).
	NodeID = graph.NodeID
	// Node is the attribute record of one node.
	Node = graph.Node
	// Mapping is a partial node mapping σ from pattern to data graph.
	Mapping = core.Mapping
	// Matrix scores node similarity: mat(v, u) ∈ [0, 1].
	Matrix = simmatrix.Matrix
	// Metric selects qualCard or qualSim.
	Metric = core.Metric
)

// Metric values.
const (
	// MetricCard is maximum cardinality, qualCard(σ) = |dom σ| / |V1|.
	MetricCard = core.MetricCard
	// MetricSim is maximum overall similarity,
	// qualSim(σ) = Σ w(v)·mat(v, σ(v)) / Σ w(v).
	MetricSim = core.MetricSim
)

// NewGraph returns an empty graph with a capacity hint of n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromEdgeList builds a graph from a label slice and (from, to) pairs —
// the terse constructor used across the examples.
func FromEdgeList(labels []string, edges [][2]int) *Graph {
	return graph.FromEdgeList(labels, edges)
}

// LabelEquality returns the matrix scoring 1 for equal labels and 0
// otherwise — classical label matching as a similarity matrix.
func LabelEquality(g1, g2 *Graph) Matrix { return simmatrix.NewLabelEquality(g1, g2) }

// ContentSimilarity returns a matrix scoring shingle resemblance of node
// contents (falling back to labels), the Web-matching convention of the
// paper's evaluation. shingleSize ≤ 0 selects the default window.
func ContentSimilarity(g1, g2 *Graph, shingleSize int) Matrix {
	return simmatrix.FromContent(g1, g2, shingleSize)
}

// SparseMatrix returns an empty editable similarity matrix; unset pairs
// score 0.
func SparseMatrix() *simmatrix.Sparse { return simmatrix.NewSparse() }

// Matcher bundles one matching problem (pattern, data, similarity matrix,
// threshold ξ) and caches the data graph's transitive closure across
// algorithm invocations. Create it with NewMatcher; the zero value is not
// usable. A Matcher is safe for concurrent use once any method has been
// called. Its methods run internal/core's context-first entry points
// under context.Background(), which is never cancelled, so they cannot
// fail; Engine is the path with deadlines.
type Matcher struct {
	in *core.Instance
}

// Option configures a Matcher at construction time.
type Option func(*core.Instance)

// WithPathLimit bounds the data-graph paths that pattern edges may map to
// at k hops — the fixed-length matching variant. k = 1 demands
// edge-to-edge images (similarity-relaxed graph homomorphism); without
// this option paths are unbounded, the paper's p-hom semantics.
func WithPathLimit(k int) Option {
	return func(in *core.Instance) { in.MaxPathLen = k }
}

// NewMatcher creates a matcher for pattern g1 against data g2. xi is the
// node-similarity threshold ξ ∈ [0, 1]: v may map to u only when
// mat(v, u) ≥ ξ.
func NewMatcher(g1, g2 *Graph, mat Matrix, xi float64, opts ...Option) *Matcher {
	in := core.NewInstance(g1, g2, mat, xi)
	for _, opt := range opts {
		opt(in)
	}
	return &Matcher{in: in}
}

// Symmetric returns a matcher in which pattern *paths* may also map to
// data paths (Section 3.2, Remark): the pattern is replaced by its
// transitive closure G1+ before matching.
func (m *Matcher) Symmetric() *Matcher {
	return &Matcher{in: m.in.Symmetric()}
}

// IsPHom decides G1 ≼(e,p) G2 exactly and returns a total witness mapping
// when it holds. Exponential in the worst case (the problem is
// NP-complete); intended for moderate pattern sizes.
func (m *Matcher) IsPHom() (Mapping, bool) {
	σ, ok, _ := m.in.DecideCtx(context.Background())
	return σ, ok
}

// IsPHom11 decides G1 ≼1-1(e,p) G2 exactly, returning an injective total
// witness when it holds. Exponential in the worst case.
func (m *Matcher) IsPHom11() (Mapping, bool) {
	σ, ok, _ := m.in.Decide11Ctx(context.Background())
	return σ, ok
}

// MaxCard approximates the maximum cardinality problem CPH with algorithm
// compMaxCard (paper Fig. 3). The result is always a valid p-hom mapping
// from the induced subgraph of its domain.
func (m *Matcher) MaxCard() Mapping {
	σ, _ := m.in.CompMaxCardCtx(context.Background())
	return σ
}

// MaxCard11 approximates CPH1−1 (injective mappings) with
// compMaxCard1−1.
func (m *Matcher) MaxCard11() Mapping {
	σ, _ := m.in.CompMaxCard11Ctx(context.Background())
	return σ
}

// MaxSim approximates the maximum overall similarity problem SPH with
// compMaxSim (weight buckets à la Halldórsson plus greedy augmentation).
func (m *Matcher) MaxSim() Mapping {
	σ, _ := m.in.CompMaxSimCtx(context.Background())
	return σ
}

// MaxSim11 approximates SPH1−1.
func (m *Matcher) MaxSim11() Mapping {
	σ, _ := m.in.CompMaxSim11Ctx(context.Background())
	return σ
}

// PartitionedMaxCard runs compMaxCard per connected component of the
// pruned pattern (Appendix B optimisation; p-hom only).
func (m *Matcher) PartitionedMaxCard() Mapping { return m.in.PartitionedMaxCard() }

// QualCard evaluates the cardinality metric of σ against this matcher's
// pattern: |dom σ| / |V1|.
func (m *Matcher) QualCard(sigma Mapping) float64 { return m.in.QualCard(sigma) }

// QualSim evaluates the overall-similarity metric of σ:
// Σ w(v)·mat(v, σ(v)) / Σ w(v).
func (m *Matcher) QualSim(sigma Mapping) float64 { return m.in.QualSim(sigma) }

// Verify checks that σ is a valid (1-1 when injective) p-hom mapping for
// this instance, returning a descriptive error when it is not.
func (m *Matcher) Verify(sigma Mapping, injective bool) error {
	return m.in.CheckMapping(sigma, injective)
}

// Matches applies the paper's evaluation convention: the pattern matches
// the data graph when σ's quality under the metric reaches threshold.
func (m *Matcher) Matches(sigma Mapping, metric Metric, threshold float64) bool {
	return core.Matches(m.in, sigma, metric, threshold)
}

// Simulates reports whether every pattern node has at least one simulator
// in the data graph under conventional graph simulation [17] — the
// edge-to-edge baseline the paper compares against. Exposed so users can
// contrast the two notions on their own data.
func Simulates(g1, g2 *Graph, mat Matrix, xi float64) bool {
	return simulation.Compute(g1, g2, mat, xi).Matches()
}

// WeightByImportance assigns every node of g a weight derived from its
// hub/authority scores (Kleinberg's HITS), scaled to (0, 1] with the
// given floor — the node-importance signal Section 3.3 of the paper
// suggests for the qualSim metric. It returns g for chaining.
func WeightByImportance(g *Graph, minWeight float64) *Graph {
	return vertexsim.ComputeHITS(g, vertexsim.Options{}).ApplyAsWeights(g, minWeight)
}
