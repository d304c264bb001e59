package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/syngen"
)

// firesAfterStart is a context whose deadline fires between comp's
// preflight and the recursion: the preflight's Err reads nil, Done is
// already closed. The first poll that selects on Done, the cancelStep-th,
// aborts the search deep in the recursion, with lists in flight, and
// does so at the same point on every run.
type firesAfterStart struct {
	context.Context
	errCalls int
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *firesAfterStart) Done() <-chan struct{} { return closedDone }

func (c *firesAfterStart) Err() error {
	if c.errCalls++; c.errCalls == 1 {
		return nil
	}
	return context.DeadlineExceeded
}

// reuseRequest is one row of the reuse table: an entry point on an
// instance, run to completion or aborted mid-recursion.
type reuseRequest struct {
	in    *Instance
	algo  int // index into compEntries
	abort bool
}

func (r reuseRequest) run() (Mapping, error) {
	var ctx context.Context = context.Background()
	if r.abort {
		ctx = &firesAfterStart{Context: ctx}
	}
	return compEntries[r.algo].run(r.in, ctx)
}

// reuseSequence is the seeded request table: every entry point on data
// graphs of 100, 2 000, 2 001 (the 2 000-node graph after a patch that
// appends a node) and 3 000 nodes, patterns of 3–15 nodes, label
// equality (one weight bucket) or weighted scores (several buckets and
// a sorted weight order), and two requests cancelled mid-recursion,
// each followed by a normal request of the same shape.
func reuseSequence(t *testing.T) []reuseRequest {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	type data struct {
		g     *graph.Graph
		reach *closure.Reach
		idx   closure.Index
	}
	prepare := func(g *graph.Graph) data {
		reach := closure.Compute(g)
		return data{g, reach, closure.AutoIndex(reach)}
	}
	g2000 := syngen.GenerateLarge(syngen.LargeConfig{Nodes: 2000, AvgDeg: 4, Labels: 64, Seed: rng.Int63()})
	g2001, err := g2000.ApplyPatch(&graph.Patch{
		AddNodes: []graph.Node{{Label: g2000.Label(0), Weight: 1}},
		AddEdges: [][2]graph.NodeID{{0, 2000}, {2000, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []data{
		prepare(syngen.GenerateLarge(syngen.LargeConfig{Nodes: 100, AvgDeg: 3, Labels: 8, Seed: rng.Int63()})),
		prepare(g2000),
		prepare(g2001),
		prepare(syngen.GenerateLarge(syngen.LargeConfig{Nodes: 3000, AvgDeg: 4, Labels: 16, Seed: rng.Int63()})),
	}
	instance := func(d data, n1 int, weighted bool) *Instance {
		g1 := syngen.CarvePattern(d.g, n1, rng.Int63())
		var mat simmatrix.Matrix = simmatrix.NewLabelEquality(g1, d.g)
		if weighted {
			// Scores among equal labels only, quantised so that weights
			// tie; random node weights spread the pairs over buckets.
			dense := simmatrix.NewDense(g1.NumNodes(), d.g.NumNodes())
			for v := 0; v < g1.NumNodes(); v++ {
				g1.SetWeight(graph.NodeID(v), 0.25+rng.Float64())
				for u := 0; u < d.g.NumNodes(); u++ {
					if g1.Label(graph.NodeID(v)) == d.g.Label(graph.NodeID(u)) {
						dense.Set(graph.NodeID(v), graph.NodeID(u), float64(2+rng.Intn(3))/4)
					}
				}
			}
			mat = dense
		}
		in := NewInstance(g1, d.g, mat, 0.5)
		in.SetReach(d.reach)
		in.SetIndex(d.idx)
		return in
	}
	var seq []reuseRequest
	for i := 0; i < 32; i++ {
		// i%4 cycles n2 and (i+i/4)%4 the entry point, so each half of
		// the 32 rows, label equality then weighted, pairs every graph
		// with every entry point.
		seq = append(seq, reuseRequest{
			in:   instance(graphs[i%4], 3+rng.Intn(13), i >= 16),
			algo: (i + i/4) % 4,
		})
		if i == 5 || i == 22 {
			big := reuseRequest{in: instance(graphs[3-i%2], 15, i >= 16), algo: i % 4}
			big.abort = true
			seq = append(seq, big)
			big.abort = false
			seq = append(seq, big)
		}
	}
	return seq
}

// TestScratchReuseLeaksNothing runs the reuse table through the pooled
// matcher scratch, on one goroutine and on four at once, and demands
// every mapping equal a cold run's: one whose scratch is new because
// two garbage collections emptied the pool (sync.Pool keeps idle items
// for one collection as victims). A difference means the pool leaks
// state from one request into the next.
func TestScratchReuseLeaksNothing(t *testing.T) {
	seq := reuseSequence(t)
	want := make([]Mapping, len(seq))
	for i, r := range seq {
		if r.abort {
			continue
		}
		runtime.GC()
		runtime.GC()
		m, err := r.run()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want[i] = m
	}
	replay := func(t *testing.T, label string) {
		for i, r := range seq {
			m, err := r.run()
			switch {
			case r.abort && !errors.Is(err, ErrDeadline):
				t.Errorf("%s: request %d (%s) returned %v, want ErrDeadline mid-recursion", label, i, compEntries[r.algo].name, err)
			case !r.abort && err != nil:
				t.Errorf("%s: request %d: %v", label, i, err)
			case !r.abort && !sameMapping(m, want[i]):
				t.Errorf("%s: request %d (%s, n1=%d, n2=%d) = %v, cold run %v", label, i,
					compEntries[r.algo].name, r.in.G1.NumNodes(), r.in.G2.NumNodes(), m, want[i])
			}
		}
	}
	t.Run("one goroutine", func(t *testing.T) { replay(t, "sequential") })
	t.Run("four goroutines", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replay(t, "concurrent")
			}()
		}
		wg.Wait()
	})
}
