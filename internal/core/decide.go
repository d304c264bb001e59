package core

import (
	"context"
	"sort"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/trace"
)

// This file hosts the exact decision procedures for the p-hom and 1-1
// p-hom problems (G1 ≼(e,p) G2 and G1 ≼1-1(e,p) G2, Section 3.2). The
// problems are NP-complete even for DAGs (Theorem 4.1), so these are
// exponential backtracking searches. They exist to provide ground truth for
// the approximation algorithms on small inputs, to power the worked
// examples, and to validate the reduction constructions of Appendix A.

func (in *Instance) decideWith(ctx context.Context, injective bool) (Mapping, bool, error) {
	n1 := in.G1.NumNodes()
	if n1 == 0 {
		return Mapping{}, true, nil
	}
	reach := in.Reach()
	// Cooperative cancellation: the backtracking search polls done every
	// cancelStep recursive calls. Background's nil Done disables it.
	done := ctx.Done()
	var steps uint64

	// Candidate lists per node, already filtered by ξ and the self-loop
	// condition.
	cands := in.candidates()
	total := 0
	for _, row := range cands {
		if len(row) == 0 {
			return nil, false, nil
		}
		total += len(row)
	}
	if sp := trace.SpanFromContext(ctx); sp.Active() {
		sp.SetInt("nodes", int64(n1))
		sp.SetInt("initial_pairs", int64(total)) // the name the comp* spans use
	}

	// Assign scarcest-first: fewer candidates fail faster.
	order := make([]graph.NodeID, n1)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return len(cands[order[i]]) < len(cands[order[j]])
	})

	assigned := make([]graph.NodeID, n1)
	for i := range assigned {
		assigned[i] = graph.Invalid
	}
	used := make(map[graph.NodeID]int) // image use counts for 1-1

	var try func(k int) bool
	try = func(k int) bool {
		if done != nil {
			steps++
			if steps%cancelStep == 0 {
				select {
				case <-done:
					panic(matchAbort{wrapDeadline(ctx.Err())})
				default:
				}
			}
		}
		if k == n1 {
			return true
		}
		v := order[k]
		for _, c := range cands[v] {
			u := c.U
			if injective && used[u] > 0 {
				continue
			}
			if !consistent(in, reach, assigned, v, u) {
				continue
			}
			assigned[v] = u
			used[u]++
			if try(k + 1) {
				return true
			}
			used[u]--
			assigned[v] = graph.Invalid
		}
		return false
	}
	var abortErr error
	found := func() bool {
		defer func() {
			if r := recover(); r != nil {
				ab, ok := r.(matchAbort)
				if !ok {
					panic(r)
				}
				abortErr = ab.err
			}
		}()
		return try(0)
	}()
	if sp := trace.SpanFromContext(ctx); sp.Active() {
		sp.SetInt("poll_steps", int64(steps))
	}
	if abortErr != nil {
		return nil, false, abortErr
	}
	if !found {
		return nil, false, nil
	}
	m := make(Mapping, n1)
	for v := 0; v < n1; v++ {
		m[graph.NodeID(v)] = assigned[v]
	}
	return m, true, nil
}

// consistent checks the edge-to-path condition of v→u against every
// already-assigned neighbour of v.
func consistent(in *Instance, reach *closure.Reach, assigned []graph.NodeID, v, u graph.NodeID) bool {
	for _, v2 := range in.G1.Post(v) {
		if u2 := assigned[v2]; u2 != graph.Invalid && !reach.Reachable(u, u2) {
			return false
		}
	}
	for _, v0 := range in.G1.Prev(v) {
		if u0 := assigned[v0]; u0 != graph.Invalid && !reach.Reachable(u0, u) {
			return false
		}
	}
	return true
}
