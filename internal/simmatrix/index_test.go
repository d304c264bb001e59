package simmatrix

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/shingle"
	"graphmatch/internal/webgen"
)

// naiveFromContent is the pairwise build FromContent replaced: every
// (pattern node, data node) pair through shingle.Resemblance. It stays
// here as the reference the postings build must equal entry for entry.
func naiveFromContent(g1, g2 *graph.Graph, shingleSize int) *Dense {
	sets1, sets2 := ContentSets(g1, shingleSize), ContentSets(g2, shingleSize)
	d := NewDense(len(sets1), len(sets2))
	for v, s1 := range sets1 {
		for u, s2 := range sets2 {
			d.Set(graph.NodeID(v), graph.NodeID(u), shingle.Resemblance(s1, s2))
		}
	}
	return d
}

// textGraph builds n isolated nodes whose contents draw words from a
// small vocabulary, so shingles collide often; roughly one node in six
// has neither content nor label (an empty shingle set) and one in six
// only a label.
func textGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		node := graph.Node{Weight: 1}
		switch rng.Intn(6) {
		case 0: // empty set
		case 1:
			node.Label = fmt.Sprintf("w%d w%d", rng.Intn(4), rng.Intn(4))
		default:
			node.Label = fmt.Sprintf("l%d", i)
			node.Content = randomText(rng)
		}
		g.AddNodeFull(node)
	}
	g.Finish()
	return g
}

func randomText(rng *rand.Rand) string {
	words := make([]string, 1+rng.Intn(12))
	for i := range words {
		words[i] = fmt.Sprintf("w%d", rng.Intn(5))
	}
	return strings.Join(words, " ")
}

func assertSameMatrix(t *testing.T, name string, got Matrix, want *Dense) {
	t.Helper()
	for v := 0; v < want.Rows(); v++ {
		for u := 0; u < want.Cols(); u++ {
			vv, uu := graph.NodeID(v), graph.NodeID(u)
			if g, w := got.Score(vv, uu), want.Score(vv, uu); g != w {
				t.Fatalf("%s: mat(%d,%d) = %v, pairwise build says %v", name, v, u, g, w)
			}
		}
	}
}

// TestPostingsMatrixEqualsPairwise: the matrix built from postings is the
// pairwise matrix, bit for bit, on random text (shared shingles, empty
// sets on both sides, label fallback) and on generated Web sites.
func TestPostingsMatrixEqualsPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		g1, g2 := textGraph(rng, 1+rng.Intn(8)), textGraph(rng, 1+rng.Intn(30))
		size := rng.Intn(4) // 0 selects the default window
		assertSameMatrix(t, fmt.Sprintf("text %d", i), FromContent(g1, g2, size), naiveFromContent(g1, g2, size))
	}
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 3, Seed: 7})
	for i, data := range arch.Versions {
		pattern := webgen.TopKSkeleton(arch.Versions[0], 8+4*i)
		assertSameMatrix(t, fmt.Sprintf("web v%d", i), FromContent(pattern, data, 0), naiveFromContent(pattern, data, 0))
	}
}

// scanRow is Row's fallback on its own: what any enumeration must equal.
func scanRow(mat Matrix, v graph.NodeID, n2 int, xi float64) []Scored {
	var out []Scored
	for u := 0; u < n2; u++ {
		if s := mat.Score(v, graph.NodeID(u)); s >= xi {
			out = append(out, Scored{U: graph.NodeID(u), Score: s})
		}
	}
	return out
}

// TestSupportEqualsScan pins the enumeration contract: whatever Support
// lists is exactly what scoring every node finds, in ascending u; ξ ≤ 0
// is declined (it admits nodes no posting mentions), and Row and
// Candidates return the scan's answer either way.
func TestSupportEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		g1, g2 := textGraph(rng, 1+rng.Intn(8)), textGraph(rng, 1+rng.Intn(30))
		mat := FromContent(g1, g2, 2)
		for _, xi := range []float64{-1, 0, 1e-9, 0.3, 0.5, 0.9, 1, 1.1} {
			for v := 0; v < g1.NumNodes(); v++ {
				vv := graph.NodeID(v)
				want := scanRow(mat, vv, g2.NumNodes(), xi)
				got, ok := mat.Support(nil, vv, xi)
				if ok != (xi > 0) {
					t.Fatalf("Support(ξ=%v) enumerable = %v, want %v", xi, ok, xi > 0)
				}
				if ok && !slices.Equal(got, want) {
					t.Fatalf("Support(v=%d, ξ=%v) = %v, scan finds %v", v, xi, got, want)
				}
				if row := Row(nil, mat, vv, g2.NumNodes(), xi); !slices.Equal(row, want) {
					t.Fatalf("Row(v=%d, ξ=%v) = %v, scan finds %v", v, xi, row, want)
				}
			}
			cands := Candidates(g1, g2, mat, xi)
			for v, cs := range cands {
				want := scanRow(mat, graph.NodeID(v), g2.NumNodes(), xi)
				if len(cs) != len(want) {
					t.Fatalf("Candidates[%d] at ξ=%v has %d nodes, scan finds %d", v, xi, len(cs), len(want))
				}
				for k, u := range cs {
					if u != want[k].U {
						t.Fatalf("Candidates[%d][%d] at ξ=%v = %d, scan finds %d", v, k, xi, u, want[k].U)
					}
				}
			}
		}
	}
}
