package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set missing %d after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 7 {
		t.Fatalf("Remove failed: contains=%v count=%d", s.Contains(64), s.Count())
	}
}

func TestFillRespectsCapacity(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill(%d): Count = %d", n, s.Count())
		}
	}
}

func TestEmptyAndClear(t *testing.T) {
	s := New(70)
	if !s.Empty() {
		t.Error("fresh set not empty")
	}
	s.Add(69)
	if s.Empty() {
		t.Error("set with bit 69 reported empty")
	}
	s.Clear()
	if !s.Empty() {
		t.Error("cleared set not empty")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 50; i++ {
		a.Add(i)
	}
	for i := 25; i < 75; i++ {
		b.Add(i)
	}
	union := a.Clone()
	union.Or(b)
	if union.Count() != 75 {
		t.Errorf("union count = %d, want 75", union.Count())
	}
	inter := a.Clone()
	inter.And(b)
	if inter.Count() != 25 {
		t.Errorf("intersection count = %d, want 25", inter.Count())
	}
	diff := a.Clone()
	diff.AndNot(b)
	if diff.Count() != 25 {
		t.Errorf("difference count = %d, want 25", diff.Count())
	}
	if got := a.IntersectionCount(b); got != 25 {
		t.Errorf("IntersectionCount = %d, want 25", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	a := New(64)
	b := New(64)
	a.Add(3)
	b.Add(3)
	b.Add(5)
	if a.Equal(b) {
		t.Error("a == b unexpected")
	}
	a.Add(5)
	if !a.Equal(b) {
		t.Error("a == b expected after Add")
	}
}

func TestNextIteration(t *testing.T) {
	s := New(200)
	want := []int{0, 1, 63, 64, 100, 199}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if s.Next(200) != -1 {
		t.Error("Next past capacity should be -1")
	}
	empty := New(10)
	if empty.Next(0) != -1 {
		t.Error("Next on empty should be -1")
	}
}

func TestSliceMatchesNext(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		ref := map[int]bool{}
		for i := 0; i < n/2; i++ {
			x := rng.Intn(n)
			s.Add(x)
			ref[x] = true
		}
		sl := s.Slice()
		if len(sl) != len(ref) || len(sl) != s.Count() {
			return false
		}
		for _, x := range sl {
			if !ref[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	// Property: |a ∪ b| = |a| + |b| − |a ∩ b|.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(256)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		u := a.Clone()
		u.Or(b)
		return u.Count() == a.Count()+b.Count()-a.IntersectionCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).Or(New(20))
}

func TestCopyFrom(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
	}
	dst := New(130)
	dst.Add(7) // stale bit: CopyFrom must fully overwrite
	dst.CopyFrom(s)
	if !dst.Equal(s) {
		t.Fatalf("CopyFrom: got %v, want %v", dst.Slice(), s.Slice())
	}
	s.Remove(63)
	if !dst.Contains(63) {
		t.Fatal("CopyFrom must copy, not alias")
	}
}

func TestSplitInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		s, a, b := New(n), New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		for _, withB := range []bool{false, true} {
			var maskB *Set
			wantT := s.Clone()
			wantT.And(a)
			if withB {
				maskB = b
				wantT.And(b)
			}
			wantM := s.Clone()
			wantM.AndNot(wantT)
			// Dirty destinations: SplitInto must overwrite them fully.
			trimmed, moved := New(n), New(n)
			trimmed.Fill()
			moved.Fill()
			anyT, anyM := s.SplitInto(a, maskB, trimmed, moved)
			if !trimmed.Equal(wantT) || !moved.Equal(wantM) {
				t.Fatalf("trial %d withB=%v: SplitInto mismatch", trial, withB)
			}
			if anyT != !wantT.Empty() || anyM != !wantM.Empty() {
				t.Fatalf("trial %d withB=%v: emptiness flags (%v,%v) want (%v,%v)",
					trial, withB, anyT, anyM, !wantT.Empty(), !wantM.Empty())
			}
		}
	}
}

func TestSplitIntoMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).SplitInto(New(10), nil, New(10), New(20))
}

func TestRecut(t *testing.T) {
	s := New(130) // three words
	s.Fill()
	if s.Recut(193) {
		t.Fatal("Recut(193) needs four words and must fail")
	}
	if s.Len() != 130 || s.Count() != 130 {
		t.Fatalf("a failed Recut changed the set: Len %d Count %d", s.Len(), s.Count())
	}
	// Shrinking keeps the storage: stale bits stay until overwritten.
	if !s.Recut(70) || s.Len() != 70 {
		t.Fatalf("Recut(70): Len = %d", s.Len())
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear after Recut left bits")
	}
	src := New(70)
	src.Add(69)
	s.CopyFrom(src)
	if s.Count() != 1 || !s.Contains(69) {
		t.Fatalf("CopyFrom after Recut: Count %d", s.Count())
	}
	// Growing back within the capacity works, and a whole overwrite
	// leaves no phantom bits past the new length's old tail.
	if !s.Recut(192) {
		t.Fatal("Recut(192) fits three words")
	}
	full := New(192)
	full.Fill()
	s.CopyFrom(full)
	if s.Count() != 192 {
		t.Fatalf("Count after regrow = %d", s.Count())
	}
}
