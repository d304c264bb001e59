package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// randInstance builds a moderately dense random instance that keeps
// the matcher busy long enough for mid-flight cancellation to land.
func randInstance(t testing.TB, n1, n2 int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g1 := graph.New(n1)
	for v := 0; v < n1; v++ {
		g1.AddNode(fmt.Sprintf("l%d", rng.Intn(4)))
	}
	for v := 0; v < n1; v++ {
		for w := 0; w < n1; w++ {
			if v != w && rng.Float64() < 0.25 {
				g1.AddEdge(graph.NodeID(v), graph.NodeID(w))
			}
		}
	}
	g1.Finish()
	g2 := graph.New(n2)
	for u := 0; u < n2; u++ {
		g2.AddNode(fmt.Sprintf("l%d", rng.Intn(4)))
	}
	for u := 0; u < n2; u++ {
		for w := 0; w < n2; w++ {
			if u != w && rng.Float64() < 0.15 {
				g2.AddEdge(graph.NodeID(u), graph.NodeID(w))
			}
		}
	}
	g2.Finish()
	return NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.9)
}

func TestExpiredContextRejectedUpFront(t *testing.T) {
	in := randInstance(t, 6, 20, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.CompMaxCardCtx(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("CompMaxCardCtx(expired) err = %v, want ErrDeadline", err)
	}
	if _, err := in.CompMaxSim11Ctx(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("CompMaxSim11Ctx(expired) err = %v, want ErrDeadline", err)
	}
	if _, _, err := in.DecideCtx(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("DecideCtx(expired) err = %v, want ErrDeadline", err)
	}
	// The wrapped cause must survive for logs.
	_, err := in.CompMaxCardCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause lost: %v", err)
	}
}

// TestBackgroundContextMatchesPlainCalls: a live context that is never
// cancelled turns polling on (Background leaves it off), and the results
// must not notice.
func TestBackgroundContextMatchesPlainCalls(t *testing.T) {
	in := randInstance(t, 8, 30, 2)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := in.CompMaxCardCtx(live)
	if err != nil {
		t.Fatal(err)
	}
	if want := compMaxCard(in); got.String() != want.String() {
		t.Fatalf("polled run diverged: %v vs %v", got, want)
	}
	gd, gok, err := in.DecideCtx(live)
	if err != nil {
		t.Fatal(err)
	}
	if wd, wok := decide(in); gok != wok || gd.String() != wd.String() {
		t.Fatalf("polled DecideCtx diverged: (%v,%v) vs (%v,%v)", gd, gok, wd, wok)
	}
}

// TestCancelPoisonsNothing is the mid-recursion cancellation
// quickcheck demanded by the issue: cancel a run mid-flight at random
// points, then verify a fresh identical request still returns
// bit-identical results — the abandoned matcher left no shared state
// behind.
func TestCancelPoisonsNothing(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := randInstance(t, 10, 60, 100+seed)
		want := compMaxCard(in).String()
		wantSim := compMaxSim(in).String()
		for trial := 0; trial < 6; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(time.Duration(trial*50) * time.Microsecond)
			m, err := in.CompMaxCardCtx(ctx)
			if err != nil {
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("unexpected error: %v", err)
				}
			} else if m.String() != want {
				t.Fatalf("seed %d trial %d: uncancelled run diverged", seed, trial)
			}
			cancel()
		}
		// After all the aborted runs, the same instance must still
		// produce the original answers.
		if got := compMaxCard(in).String(); got != want {
			t.Fatalf("seed %d: post-cancel CompMaxCard diverged: %s vs %s", seed, got, want)
		}
		if got := compMaxSim(in).String(); got != wantSim {
			t.Fatalf("seed %d: post-cancel CompMaxSim diverged: %s vs %s", seed, got, wantSim)
		}
	}
}

// TestDecideCancelReturnsPromptly pins that a cancelled exponential
// decision stops quickly instead of pinning the goroutine until the
// search space is exhausted.
func TestDecideCancelReturnsPromptly(t *testing.T) {
	// A pattern demanding an injective total mapping with abundant
	// near-matches forces deep backtracking.
	in := randInstance(t, 14, 48, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := in.Decide11Ctx(ctx)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, ErrDeadline) {
		t.Fatalf("unexpected error: %v", err)
	}
	// Generous bound: either it finished fast legitimately, or the
	// cancellation cut it off — both well under a second.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled decide ran %v", elapsed)
	}
}

func TestReachCtxCancelledBuildRetries(t *testing.T) {
	in := randInstance(t, 4, 40, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.ReachCtx(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("ReachCtx(expired) err = %v, want ErrDeadline", err)
	}
	// The failed build must not have cached anything: a live context
	// succeeds.
	r, err := in.ReachCtx(context.Background())
	if err != nil || r == nil {
		t.Fatalf("retry failed: %v", err)
	}
}
