package core

import (
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// Direct unit tests for the Halldórsson weight-bucket partition inside
// compMaxSim (simBuckets), separate from the end-to-end algorithm tests.

func bucketFixture() (*Instance, *matcher, *matchList) {
	// Four isolated pattern nodes with weights spanning two orders of
	// magnitude against four data nodes.
	g1 := graph.FromEdgeList([]string{"a", "b", "c", "d"}, nil)
	g1.SetWeight(0, 100) // heaviest pair weight 100
	g1.SetWeight(1, 40)
	g1.SetWeight(2, 10)
	g1.SetWeight(3, 0.001) // below the W/(n1·n2) floor
	g2 := graph.FromEdgeList([]string{"a", "b", "c", "d"}, nil)
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	mx := in.newMatcher(false, false)
	return in, mx, mx.initialList()
}

func TestSimBucketsPartition(t *testing.T) {
	_, mx, h := bucketFixture()
	buckets := mx.simBuckets(h)
	if len(buckets) == 0 {
		t.Fatal("no buckets")
	}
	// Every surviving pair appears in exactly one bucket; the sub-floor
	// pair (node 3, weight 0.001 < 100/16) is dropped.
	seen := map[graph.NodeID]int{}
	for _, b := range buckets {
		for _, v := range b.nodes {
			seen[v] += b.good[v].Count()
		}
	}
	if seen[3] != 0 {
		t.Errorf("sub-floor pair survived: %v", seen)
	}
	for _, v := range []graph.NodeID{0, 1, 2} {
		if seen[v] != 1 {
			t.Errorf("node %d appears %d times across buckets, want 1", v, seen[v])
		}
	}
}

func TestSimBucketsWeightRanges(t *testing.T) {
	in, mx, h := bucketFixture()
	for _, b := range mx.simBuckets(h) {
		// Within a bucket, max/min pair weight ratio is at most 2 (the
		// [W/2^i, W/2^(i-1)) bands), up to the last band's tail.
		minW, maxW := 1e18, 0.0
		for _, v := range b.nodes {
			set := b.good[v]
			for u := set.Next(0); u >= 0; u = set.Next(u + 1) {
				w := in.pairWeight(v, graph.NodeID(u))
				if w < minW {
					minW = w
				}
				if w > maxW {
					maxW = w
				}
			}
		}
		if maxW > 2*minW*1.0001 && minW > 100.0/16 {
			t.Errorf("bucket spans ratio %v (%v..%v)", maxW/minW, minW, maxW)
		}
	}
}

func TestSimBucketsEmptyOnZeroWeights(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"x"}, nil)
	g2 := graph.FromEdgeList([]string{"y"}, nil) // no admissible pairs
	in := NewInstance(g1, g2, simmatrix.NewLabelEquality(g1, g2), 0.5)
	mx := in.newMatcher(false, false)
	if buckets := mx.simBuckets(mx.initialList()); len(buckets) != 0 {
		t.Fatalf("buckets = %d, want 0", len(buckets))
	}
}

func TestPickCandidateBest(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"v"}, nil)
	g2 := graph.FromEdgeList([]string{"u0", "u1", "u2"}, nil)
	mat := simmatrix.NewSparse()
	mat.Set(0, 0, 0.8)
	mat.Set(0, 1, 0.95) // the heaviest candidate
	mat.Set(0, 2, 0.9)
	in := NewInstance(g1, g2, mat, 0.5)
	mx := in.newMatcher(false, false)
	h := mx.initialList()
	if got := mx.pickCandidate(0, h.good[0]); got != 0 {
		t.Errorf("default pick = %d, want first (0)", got)
	}
	mx = in.newMatcher(false, true)
	if got := mx.pickCandidate(0, h.good[0]); got != 1 {
		t.Errorf("best pick = %d, want 1", got)
	}
}
