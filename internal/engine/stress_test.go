package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"graphmatch/internal/catalog"
)

// TestConcurrentStress is the -race acceptance test: many goroutines
// issue mixed Match/MatchBatch calls for a pool of distinct requests
// against a shared catalog, and every result must equal the
// single-threaded answer computed up front. It exercises the worker
// pool and the shared closure cache concurrently.
func TestConcurrentStress(t *testing.T) {
	e := New(Options{Workers: 8, MaxClosures: 4})
	defer e.Close()

	graphs := map[string]int64{"alpha": 21, "beta": 22, "gamma": 23}
	for name, seed := range graphs {
		if err := e.Register(context.Background(), name, randomGraph(50, 3, seed)); err != nil {
			t.Fatal(err)
		}
	}

	// A fixed request pool mixing graphs, algorithms, thresholds and
	// path limits. Exact algorithms stay out: their runtime varies too
	// much for a stress loop; TestEngineMatchesDirectMatcher covers them.
	var pool []Request
	var want []Result
	algos := []Algorithm{MaxCard, MaxCard11, MaxSim, MaxSim11}
	i := 0
	for name := range graphs {
		res, err := e.Catalog().Resolve(context.Background(), name, 0, catalog.NeedGraph)
		data := res.Graph
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range algos {
			for _, limit := range []int{0, 3} {
				req := Request{
					Pattern:   patternFrom(data, 6, int64(100+i)),
					GraphName: name,
					Algo:      algo,
					Xi:        0.9,
					PathLimit: limit,
				}
				pool = append(pool, req)
				want = append(want, directResult(t, data, req))
				i++
			}
		}
	}

	const (
		workers    = 16
		iterations = 25
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers*iterations)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			ctx := context.Background()
			for it := 0; it < iterations; it++ {
				check := func(idx int, got Result) {
					if got.Err != nil {
						errs <- got.Err.Error()
						return
					}
					if !mappingEqual(got.Mapping, want[idx].Mapping) {
						errs <- "mapping diverged from single-threaded run"
					}
					if got.QualCard != want[idx].QualCard || got.QualSim != want[idx].QualSim {
						errs <- "quality diverged from single-threaded run"
					}
				}
				if it%3 == 0 {
					// A batch of 4 random picks (duplicates possible: each
					// runs as its own task).
					idxs := make([]int, 4)
					reqs := make([]Request, 4)
					for j := range reqs {
						idxs[j] = rng.Intn(len(pool))
						reqs[j] = pool[idxs[j]]
					}
					for j, res := range e.MatchBatch(ctx, reqs) {
						check(idxs[j], res)
					}
				} else {
					idx := rng.Intn(len(pool))
					check(idx, e.Match(ctx, pool[idx]))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	failures := 0
	for msg := range errs {
		if failures < 10 {
			t.Error(msg)
		}
		failures++
	}
	if failures > 0 {
		t.Fatalf("%d concurrent results diverged or failed", failures)
	}

	s := e.Stats()
	if s.Requests == 0 || s.Executed == 0 {
		t.Fatalf("stress ran nothing: %+v", s)
	}
	cs := e.Catalog().Stats()
	if cs.Hits == 0 {
		t.Fatalf("no shared-closure hits under stress: %+v", cs)
	}
	t.Logf("engine: %+v", s)
	t.Logf("catalog: %+v (hit rate %.1f%%)", cs, cs.HitRate()*100)
}
