package search

import (
	"container/heap"
	"sort"
)

// Hit is one scored result in a top-k fold. Score is the primary rank
// key (higher is better), Tie the secondary; equal (Score, Tie) pairs
// order by Name ascending, which is what makes a search over a fixed
// catalog return the same ranking on every run regardless of the order
// stage 2 completes in.
type Hit struct {
	Name    string
	Score   float64
	Tie     float64
	Payload any
}

// Better reports whether a ranks strictly ahead of b.
func Better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Tie != b.Tie {
		return a.Tie > b.Tie
	}
	return a.Name < b.Name
}

// TopK folds a stream of hits into the best k, deterministically.
// Create one with NewTopK; it is not safe for concurrent use (the
// engine folds from a single goroutine as batch results arrive).
type TopK struct {
	k  int
	hs hitHeap
}

// NewTopK returns a fold keeping the best k hits; k <= 0 keeps
// everything.
func NewTopK(k int) *TopK { return &TopK{k: k} }

// Push offers one hit to the fold.
func (t *TopK) Push(h Hit) {
	if t.k > 0 && len(t.hs) == t.k {
		// Full: h must beat the current worst (the heap root) to enter.
		if !Better(h, t.hs[0]) {
			return
		}
		t.hs[0] = h
		heap.Fix(&t.hs, 0)
		return
	}
	heap.Push(&t.hs, h)
}

// Len reports the hits currently held.
func (t *TopK) Len() int { return len(t.hs) }

// Floor returns the worst held hit once the fold holds k of them, the
// hit any newcomer must beat to enter, and false before that (always,
// for a fold that keeps everything).
func (t *TopK) Floor() (Hit, bool) {
	if t.k <= 0 || len(t.hs) < t.k {
		return Hit{}, false
	}
	return t.hs[0], true
}

// Ranked returns the held hits best-first. The fold remains usable.
func (t *TopK) Ranked() []Hit {
	out := make([]Hit, len(t.hs))
	copy(out, t.hs)
	sort.Slice(out, func(i, j int) bool { return Better(out[i], out[j]) })
	return out
}

// hitHeap is a min-heap on rank order: the root is the worst held hit,
// so a full TopK evicts in O(log k).
type hitHeap []Hit

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return Better(h[j], h[i]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
