package core

import (
	"testing"
	"testing/quick"

	"graphmatch/internal/closure"
)

// Tier-equivalence quickchecks: the candidate-sparse index tier is a
// pure representation change, so every algorithm must return
// bit-identical mappings — not merely mappings of equal quality — under
// either tier. The search is deterministic given the index answers, so
// any divergence means one tier answered a reachability query wrong.

// sameMapping reports exact equality of two mappings.
func sameMapping(a, b Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for v, u := range a {
		if b[v] != u {
			return false
		}
	}
	return true
}

// tierPair clones one random instance into a dense-tier and a
// sparse-tier copy sharing nothing but the (recomputed, identical)
// closure.
func tierPair(mk func() *Instance) (dense, sparse *Instance) {
	dense, sparse = mk(), mk()
	dense.SetIndex(closure.NewRows(dense.Reach()))
	sparse.SetIndex(closure.NewCompIndex(sparse.Reach()))
	return dense, sparse
}

func TestTierEquivalence(t *testing.T) {
	type algo struct {
		name string
		run  func(*Instance) Mapping
	}
	algos := []algo{
		{"maxcard", compMaxCard},
		{"maxcard11", compMaxCard11},
		{"maxsim", compMaxSim},
		{"maxsim11", compMaxSim11},
	}
	f := func(seed int64) bool {
		for _, mk := range []func() *Instance{
			func() *Instance { return randomInstance(seed, 8, 24) },
			func() *Instance { return weightedRandomInstance(seed, 7, 20) },
		} {
			for _, a := range algos {
				dense, sparse := tierPair(mk)
				md, ms := a.run(dense), a.run(sparse)
				if !sameMapping(md, ms) {
					t.Logf("seed %d %s: dense %v, sparse %v", seed, a.name, md, ms)
					return false
				}
				if err := dense.CheckMapping(md, a.name == "maxcard11" || a.name == "maxsim11"); err != nil {
					t.Logf("seed %d %s: invalid mapping: %v", seed, a.name, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTierEquivalencePartitionedAndFiltered(t *testing.T) {
	// The Appendix B partitioned variants consult the index through a
	// different path (partitionComponents shares it across
	// sub-instances), and the deciders read only Reach; both must be
	// tier-blind.
	for seed := int64(0); seed < 25; seed++ {
		dense, sparse := tierPair(func() *Instance { return randomInstance(seed, 8, 24) })
		if md, ms := dense.PartitionedMaxCard(), sparse.PartitionedMaxCard(); !sameMapping(md, ms) {
			t.Fatalf("seed %d: PartitionedMaxCard diverges: %v vs %v", seed, md, ms)
		}
		for _, dec := range []func(*Instance) (Mapping, bool){decide, decide11} {
			md, okd := dec(dense)
			ms, oks := dec(sparse)
			if okd != oks || !sameMapping(md, ms) {
				t.Fatalf("seed %d: decide diverges: (%v,%v) vs (%v,%v)", seed, md, okd, ms, oks)
			}
		}
	}
}

func TestAutoIndexTierSelection(t *testing.T) {
	// A small instance must auto-build the dense tier (the fast path
	// existing callers rely on); the sparse tier only takes over via
	// catalog injection or the auto threshold on genuinely large graphs.
	in := randomInstance(1, 6, 18)
	if tier := in.Index().Tier(); tier != closure.TierDense {
		t.Fatalf("small instance auto-built %q, want %q", tier, closure.TierDense)
	}
}
