package core

import (
	"context"
	"errors"
	"fmt"

	"graphmatch/internal/closure"
	"graphmatch/internal/trace"
)

// This file threads context cancellation into the matching algorithms.
// The paper's procedures have wildly input-dependent cost — the
// approximation algorithms are cubic with large constants, the exact
// deciders exponential — so a serving system needs per-request
// deadlines that actually stop the recursion, not just abandon its
// result. The design:
//
//   - Every *Ctx entry point installs the context's Done channel on
//     the matcher and polls it every cancelStep recursive calls (a
//     single counter increment and predictable branch on the hot
//     path; the channel select only every 128th call).
//   - A fired poll panics with matchAbort, unwinding the entire
//     recursion at once; the entry point recovers it and returns
//     ErrDeadline. Unwinding abandons the lists in flight; the
//     matcher's scratch still goes back to its pool, holding only what
//     was on its free lists, and the abandoned lists' sets are garbage
//     collected with them (scratch.go). A subsequent identical request
//     returns bit-identical results (pinned by TestCancelPoisonsNothing
//     and TestScratchReuseLeaksNothing).
//   - The closure build gets the same treatment via
//     closure.ComputeBoundedCtx (polled per node), reached through
//     ReachCtx. Builds installed by the catalog are shared across
//     requests and are never cancelled — only a request-private lazy
//     build dies with its request.
//
// context.Background()'s nil Done channel disables polling entirely,
// so callers with no deadline pay nothing.

// ErrDeadline reports that a matching computation was abandoned
// because its context was cancelled or its deadline expired before the
// algorithm finished. Errors returned by the *Ctx entry points wrap
// both ErrDeadline and the context's own error, so errors.Is works
// against either.
var ErrDeadline = errors.New("core: deadline exceeded")

// cancelStep is the poll cadence: the Done channel is selected every
// this many recursive calls. Power of two so the modulo compiles to a
// mask. 128 bounds post-cancel overrun to microseconds while keeping
// the common-path cost to one increment + compare.
const cancelStep = 128

// matchAbort is the panic sentinel that unwinds the recursion when a
// poll observes cancellation. It never escapes this package: every
// *Ctx entry point recovers it.
type matchAbort struct{ err error }

// wrapDeadline converts a context error into the typed ErrDeadline,
// preserving the cause for logs.
func wrapDeadline(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrDeadline, cause)
}

// bind installs ctx on the matcher. A context that can never be
// cancelled (Background) leaves polling disabled.
func (mx *matcher) bind(ctx context.Context) {
	mx.done = ctx.Done()
	mx.ctx = ctx
}

// poll is the cooperative cancellation check, called from the hot
// recursion. With no cancellable context bound it is two predictable
// instructions.
func (mx *matcher) poll() {
	if mx.done == nil {
		return
	}
	mx.steps++
	if mx.steps%cancelStep != 0 {
		return
	}
	select {
	case <-mx.done:
		panic(matchAbort{wrapDeadline(mx.ctx.Err())})
	default:
	}
}

// recoverAbort turns a matchAbort panic into the entry point's error
// return; any other panic propagates.
func recoverAbort(m *Mapping, err *error) {
	if r := recover(); r != nil {
		ab, ok := r.(matchAbort)
		if !ok {
			panic(r)
		}
		*m, *err = nil, ab.err
	}
}

// ReachCtx is Reach with a cancellable build: when the index is not
// yet cached the (potentially cubic) closure construction runs under
// ctx and a cancelled build leaves the cache empty — the next caller
// rebuilds. A cached index returns immediately regardless of ctx.
func (in *Instance) ReachCtx(ctx context.Context) (*closure.Reach, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.reach == nil {
		r, err := closure.ComputeBoundedCtx(ctx, in.G2, in.MaxPathLen)
		if err != nil {
			return nil, wrapDeadline(err)
		}
		in.reach = r
	}
	return in.reach, nil
}

// prepareCtx runs the shared preflight of every *Ctx entry point:
// reject an already-dead context before doing any work, then make sure
// the reachability index exists (building it cancellably if not).
func (in *Instance) prepareCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return wrapDeadline(err)
	}
	_, err := in.ReachCtx(ctx)
	return err
}

// CompMaxCardCtx is algorithm compMaxCard (Fig. 3): an approximation
// for the maximum cardinality problem CPH with quality within
// O(log²(|V1|·|V2|)/(|V1|·|V2|)) of the optimum (Proposition 5.2). The
// returned mapping is always a valid p-hom mapping from the subgraph of
// G1 induced by its domain to G2. When ctx is cancelled mid-recursion
// the search stops within cancelStep calls and the typed ErrDeadline
// (wrapping ctx's error) is returned.
func (in *Instance) CompMaxCardCtx(ctx context.Context) (Mapping, error) {
	return in.comp(ctx, "core.maxcard", false, false)
}

// CompMaxCard11Ctx is compMaxCard1−1: the CPH1−1 variant that keeps
// mappings injective by displacing a matched data node from every other
// candidate set. Same complexity and guarantee as compMaxCard
// (Section 5).
func (in *Instance) CompMaxCard11Ctx(ctx context.Context) (Mapping, error) {
	return in.comp(ctx, "core.maxcard11", true, false)
}

// CompMaxSimCtx is algorithm compMaxSim: an approximation for the
// maximum overall similarity problem SPH with the same performance
// guarantee as compMaxCard (Theorem 5.1) and an extra log(|V1|·|V2|)
// time factor. Candidate picks inside greedyMatch are weight-greedy
// here — the choice of u from H[v].good is free in Fig. 4, and the
// heaviest pair is the natural choice when maximising
// Σ w(v)·mat(v, σ(v)).
func (in *Instance) CompMaxSimCtx(ctx context.Context) (Mapping, error) {
	return in.comp(ctx, "core.maxsim", false, true)
}

// CompMaxSim11Ctx is compMaxSim1−1, the injective variant for SPH1−1.
func (in *Instance) CompMaxSim11Ctx(ctx context.Context) (Mapping, error) {
	return in.comp(ctx, "core.maxsim11", true, true)
}

// comp is the one body behind the four approximation entry points: the
// compMaxCard outer loop (run) or compMaxSim's bucket scheme (runSim,
// with weight-greedy candidate picks), under ctx and the named span.
func (in *Instance) comp(ctx context.Context, span string, injective, sim bool) (m Mapping, err error) {
	if err := in.prepareCtx(ctx); err != nil {
		return nil, err
	}
	defer recoverAbort(&m, &err)
	mx := in.newMatcher(injective, sim)
	defer mx.release() // after the span's end func has read the stats
	mx.bind(ctx)
	defer startMatchSpan(ctx, span)(mx)
	h := mx.initialList()
	if sim {
		m = mx.runSim(h)
	} else {
		m = mx.run(h)
	}
	mx.putList(h)
	return m, nil
}

// DecideCtx reports whether G1 is p-hom to G2 w.r.t. mat() and ξ,
// returning a witness mapping over the whole of V1 when it is. It
// polls ctx like the approximation entry points — which matters most
// here, since the exact decider is exponential and a single adversarial
// pattern can otherwise pin a worker for hours.
func (in *Instance) DecideCtx(ctx context.Context) (Mapping, bool, error) {
	return in.decideCtx(ctx, false)
}

// Decide11Ctx reports whether G1 is 1-1 p-hom to G2, returning an
// injective witness mapping when it is.
func (in *Instance) Decide11Ctx(ctx context.Context) (Mapping, bool, error) {
	return in.decideCtx(ctx, true)
}

func (in *Instance) decideCtx(ctx context.Context, injective bool) (Mapping, bool, error) {
	if err := in.prepareCtx(ctx); err != nil {
		return nil, false, err
	}
	name := "core.decide"
	if injective {
		name = "core.decide11"
	}
	sp := trace.SpanFromContext(ctx).Child(name)
	if sp.Active() {
		// Re-wrap so decideWith's candidate-construction phase can attach
		// its counts to this span rather than the engine's parent.
		ctx = trace.ContextWithSpan(ctx, sp)
		defer sp.End()
	}
	m, ok, err := in.decideWith(ctx, injective)
	if sp.Active() {
		sp.SetBool("holds", ok)
		if err != nil {
			sp.SetStr("error", err.Error())
		}
	}
	return m, ok, err
}
