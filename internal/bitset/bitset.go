// Package bitset implements a dense fixed-capacity bitset used by the
// transitive-closure index, the independent-set algorithms and the maximum
// common subgraph search. Row-oriented bit matrices over node IDs are the
// backbone of the adjacency matrix H2 for the transitive closure graph G2+
// (Fig. 3, lines 5–7 of the paper).
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset. The zero value is unusable; create sets
// with New. Capacity is fixed at creation: operations on mismatched lengths
// panic, since that always indicates a programming error here.
type Set struct {
	words []uint64
	n     int
}

// New returns a set able to hold bits 0..n-1, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len reports the capacity n of the set.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) { s.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Remove clears bit i.
func (s *Set) Remove(i int) { s.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count reports the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear resets all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets bits 0..n-1.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears the unused tail bits of the last word so Count stays exact.
func (s *Set) trim() {
	if r := uint(s.n) % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// Grown returns a set of capacity n ≥ s.Len() containing the same bits.
// When the word count is unchanged the result shares s's storage — treat
// both as immutable afterwards (the trim invariant keeps the shared tail
// bits clear, so the wider view observes no phantom bits). Otherwise the
// result is an independent copy.
func (s *Set) Grown(n int) *Set {
	if n < s.n {
		panic("bitset: Grown shrinks")
	}
	if n == s.n {
		return s
	}
	words := (n + wordBits - 1) / wordBits
	if words == len(s.words) {
		return &Set{words: s.words, n: n}
	}
	w := make([]uint64, words)
	copy(w, s.words)
	return &Set{words: w, n: n}
}

// Recut re-cuts s to capacity n over its existing words when they can
// hold n bits, and reports whether they could; s is unchanged when they
// cannot. The bits are not cleared: after a change of length s may hold
// stale bits, also past n, so callers Clear it or overwrite it whole
// (CopyFrom, SplitInto) before reading it.
func (s *Set) Recut(n int) bool {
	words := (n + wordBits - 1) / wordBits
	if words > cap(s.words) {
		return false
	}
	s.words, s.n = s.words[:words], n
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of t without allocating.
func (s *Set) CopyFrom(t *Set) {
	s.checkLen(t)
	copy(s.words, t.words)
}

// SplitInto partitions s against the mask a ∩ b in one word-level pass:
// trimmed receives s ∩ a ∩ b and moved receives s \ (a ∩ b). b may be
// nil, in which case the mask is a alone. trimmed and moved are fully
// overwritten (they may hold stale bits from a free list) and must be
// distinct from s, a and b. The returns report whether trimmed and
// moved are nonempty, so callers avoid a separate Empty scan.
func (s *Set) SplitInto(a, b, trimmed, moved *Set) (anyTrimmed, anyMoved bool) {
	s.checkLen(a)
	s.checkLen(trimmed)
	s.checkLen(moved)
	var tAcc, mAcc uint64
	if b == nil {
		for i, w := range s.words {
			m := a.words[i]
			t, d := w&m, w&^m
			trimmed.words[i] = t
			moved.words[i] = d
			tAcc |= t
			mAcc |= d
		}
	} else {
		s.checkLen(b)
		for i, w := range s.words {
			m := a.words[i] & b.words[i]
			t, d := w&m, w&^m
			trimmed.words[i] = t
			moved.words[i] = d
			tAcc |= t
			mAcc |= d
		}
	}
	return tAcc != 0, mAcc != 0
}

// Or sets s to s ∪ t.
func (s *Set) Or(t *Set) {
	s.checkLen(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// And sets s to s ∩ t.
func (s *Set) And(t *Set) {
	s.checkLen(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ t.
func (s *Set) AndNot(t *Set) {
	s.checkLen(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// IntersectionCount reports |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	s.checkLen(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// Equal reports whether s and t contain the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Next returns the smallest set bit ≥ i, or -1 if none exists. Together
// with a for loop it iterates set bits in increasing order:
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Slice returns the set bits in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

func (s *Set) checkLen(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}
