package core

import (
	"sync"
	"testing"
)

// The documented contract: an Instance is safe for concurrent use once
// the closure cache is primed (any first algorithm call primes it). The
// matching algorithms themselves share only immutable state.
func TestConcurrentMatching(t *testing.T) {
	in := randomInstance(3, 10, 14)
	in.Reach() // prime the closure cache
	want := len(compMaxCard(in))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var m Mapping
			switch i % 4 {
			case 0:
				m = compMaxCard(in)
				if len(m) != want {
					errs <- "nondeterministic CompMaxCard size"
				}
			case 1:
				m = compMaxCard11(in)
			case 2:
				m = compMaxSim(in)
			case 3:
				m = compMaxSim11(in)
			}
			if err := in.CheckMapping(m, i%4 == 1 || i%4 == 3); err != nil {
				errs <- err.Error()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// The algorithms are fully deterministic: repeated runs on one
	// instance yield identical mappings.
	in := randomInstance(11, 12, 16)
	first := compMaxCard(in)
	for i := 0; i < 5; i++ {
		again := compMaxCard(in)
		if len(again) != len(first) {
			t.Fatalf("run %d: size %d != %d", i, len(again), len(first))
		}
		for v, u := range first {
			if again[v] != u {
				t.Fatalf("run %d: mapping differs at %d", i, v)
			}
		}
	}
}

func BenchmarkInitialList(b *testing.B) {
	in := randomInstance(1, 100, 300)
	mx := in.newMatcher(false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx.putList(mx.initialList())
	}
}

func BenchmarkNewMatcher(b *testing.B) {
	in := randomInstance(1, 100, 300)
	in.Reach()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.newMatcher(false, false).release()
	}
}

func BenchmarkGreedyMatchRound(b *testing.B) {
	in := randomInstance(1, 60, 120)
	mx := in.newMatcher(false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := mx.initialList()
		s, c := mx.greedyMatch(h)
		mx.putPairs(s)
		mx.putPairs(c)
		mx.putList(h)
	}
}

func BenchmarkCompMaxCardMedium(b *testing.B) {
	in := randomInstance(2, 80, 200)
	in.Reach()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compMaxCard(in)
	}
}

func TestConcurrentSymmetricSafe(t *testing.T) {
	// Symmetric peeks at the lazily built closure caches while other
	// goroutines may be building them — must be race-free on a cold
	// instance (run under -race).
	in := randomInstance(9, 8, 12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				compMaxCard(in)
			} else {
				sym := in.Symmetric()
				if err := sym.CheckMapping(compMaxCard(sym), false); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
}
