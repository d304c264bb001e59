package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Candidate-list equivalence: a matrix that lists its own support and
// the same matrix read pair by pair must drive every algorithm to the
// same mapping, bit for bit — the lists are an access path, never a
// different answer. The references are the un-indexed matrices (Row's
// scan) here and, in equivalence_test.go, the direct transcription of
// Figs. 3–4 that scans V1 × V2 itself.

// listed gives any matrix the support lists an index would hold: the
// nonzero pairs of each row, which is all a posting can know. Like an
// indexed matrix it must decline ξ ≤ 0, where zero-scoring nodes count.
type listed struct {
	simmatrix.Matrix
	rows [][]simmatrix.Scored
}

func newListed(mat simmatrix.Matrix, n1, n2 int) listed {
	l := listed{Matrix: mat, rows: make([][]simmatrix.Scored, n1)}
	for v := range l.rows {
		for u := 0; u < n2; u++ {
			if s := mat.Score(graph.NodeID(v), graph.NodeID(u)); s > 0 {
				l.rows[v] = append(l.rows[v], simmatrix.Scored{U: graph.NodeID(u), Score: s})
			}
		}
	}
	return l
}

func (l listed) Support(dst []simmatrix.Scored, v graph.NodeID, xi float64) ([]simmatrix.Scored, bool) {
	if xi <= 0 {
		return dst, false
	}
	for _, c := range l.rows[v] {
		if c.Score >= xi {
			dst = append(dst, c)
		}
	}
	return dst, true
}

// unlisted hides a matrix's Support, forcing the scan.
type unlisted struct{ simmatrix.Matrix }

// candidateFixture is one random problem: graphs with self-loops on both
// sides, pattern labels the data graph does not have, nodes with no text
// at all, uneven pattern weights.
func candidateFixture(seed int64) (g1, g2 *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	build := func(n int, labels []string) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			node := graph.Node{Label: labels[rng.Intn(len(labels))], Weight: 0.25 + rng.Float64()}
			switch rng.Intn(5) {
			case 0:
				node.Label = "" // no label, no content: an empty shingle set
			case 1, 2:
				node.Content = fmt.Sprintf("w%d w%d w%d w%d", rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3))
			}
			g.AddNodeFull(node)
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		for i := 0; i < n; i += 4 {
			g.AddEdge(graph.NodeID(i), graph.NodeID(i)) // guaranteed self-loops
		}
		g.Finish()
		return g
	}
	g1 = build(3+rng.Intn(4), []string{"a", "b", "c", "only-in-pattern"})
	g2 = build(10+rng.Intn(15), []string{"a", "b", "c"})
	return g1, g2
}

func TestListedCandidatesChangeNothing(t *testing.T) {
	type algo struct {
		name string
		run  func(*Instance) (Mapping, bool)
	}
	total := func(f func(*Instance) Mapping) func(*Instance) (Mapping, bool) {
		return func(in *Instance) (Mapping, bool) { return f(in), true }
	}
	algos := []algo{
		{"maxcard", total(compMaxCard)},
		{"maxcard11", total(compMaxCard11)},
		{"maxsim", total(compMaxSim)},
		{"maxsim11", total(compMaxSim11)},
		{"decide", decide},
		{"decide11", decide11},
		{"partitioned-maxsim", total((*Instance).PartitionedMaxSim)},
	}
	sawCandidates := false
	for seed := int64(0); seed < 12; seed++ {
		g1, g2 := candidateFixture(seed)
		content := simmatrix.FromContent(g1, g2, 2) // lists its own support
		labels := simmatrix.NewLabelEquality(g1, g2)
		pairs := []struct {
			name          string
			indexed, scan simmatrix.Matrix
		}{
			{"content", content, unlisted{content}},
			{"label", newListed(labels, g1.NumNodes(), g2.NumNodes()), labels},
		}
		for _, p := range pairs {
			for _, pathLen := range []int{0, 2} {
				reach := closure.ComputeBounded(g2, pathLen)
				tiers := map[string]closure.Index{"dense": closure.NewRows(reach), "sparse": closure.NewCompIndex(reach)}
				for _, xi := range []float64{0, 0.5, 0.9, 1} {
					for tier, index := range tiers {
						for _, a := range algos {
							mk := func(mat simmatrix.Matrix) *Instance {
								in := NewInstance(g1, g2, mat, xi)
								in.MaxPathLen = pathLen
								in.SetReach(reach)
								in.SetIndex(index)
								return in
							}
							got, want := mk(p.indexed), mk(p.scan)
							mg, okg := a.run(got)
							mw, okw := a.run(want)
							where := fmt.Sprintf("seed %d %s ξ=%v k=%d %s %s", seed, p.name, xi, pathLen, tier, a.name)
							if okg != okw || !sameMapping(mg, mw) {
								t.Fatalf("%s: listed candidates give (%v, %v), the scan gives (%v, %v)", where, mg, okg, mw, okw)
							}
							if err := want.CheckMapping(mg, a.name == "maxcard11" || a.name == "maxsim11" || a.name == "decide11"); err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							sawCandidates = sawCandidates || len(mg) > 0
						}
					}
				}
			}
		}
	}
	if !sawCandidates {
		t.Fatal("degenerate fixtures: no algorithm ever matched a node")
	}
}

// TestCandidatesFilterSelfLoops pins the one filter candidates() adds to
// the matrix's answer: a pattern node with a self-loop keeps only images
// on a cycle, whichever way the row was enumerated.
func TestCandidatesFilterSelfLoops(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"a", "a"}, [][2]int{{0, 0}})
	g2 := graph.FromEdgeList([]string{"a", "a", "a", "b"}, [][2]int{{1, 2}, {2, 1}})
	labels := simmatrix.NewLabelEquality(g1, g2)
	for name, mat := range map[string]simmatrix.Matrix{"scan": labels, "listed": newListed(labels, 2, 4)} {
		cands := NewInstance(g1, g2, mat, 0.5).candidates()
		var loop, free []graph.NodeID
		for _, c := range cands[0] {
			loop = append(loop, c.U)
		}
		for _, c := range cands[1] {
			free = append(free, c.U)
		}
		if fmt.Sprint(loop) != "[1 2]" || fmt.Sprint(free) != "[0 1 2]" {
			t.Errorf("%s: candidates = %v (self-loop node), %v (plain node); want [1 2], [0 1 2]", name, loop, free)
		}
	}
}
