package shingle

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 42 foo-bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ,.;  "); len(got) != 0 {
		t.Fatalf("Tokenize punctuation = %v, want empty", got)
	}
}

func TestShingleCounts(t *testing.T) {
	s := NewShingler(3)
	// 5 tokens, window 3 → 3 shingles.
	set := s.Shingle("a b c d e")
	if len(set) != 3 {
		t.Fatalf("shingles = %d, want 3", len(set))
	}
}

func TestShingleShortText(t *testing.T) {
	s := NewShingler(4)
	set := s.Shingle("just two")
	if len(set) != 1 {
		t.Fatalf("short text shingles = %d, want 1", len(set))
	}
	if len(s.Shingle("")) != 0 {
		t.Fatal("empty text should have no shingles")
	}
}

func TestDefaultSize(t *testing.T) {
	if NewShingler(0).Size() != DefaultSize {
		t.Error("zero size should fall back to default")
	}
	if NewShingler(-3).Size() != DefaultSize {
		t.Error("negative size should fall back to default")
	}
	if NewShingler(7).Size() != 7 {
		t.Error("explicit size ignored")
	}
}

func TestResemblanceIdentical(t *testing.T) {
	s := NewShingler(3)
	text := "the quick brown fox jumps over the lazy dog"
	a := s.Shingle(text)
	if got := Resemblance(a, a); got != 1 {
		t.Fatalf("self resemblance = %v, want 1", got)
	}
}

func TestResemblanceDisjoint(t *testing.T) {
	s := NewShingler(2)
	a := s.Shingle("alpha beta gamma")
	b := s.Shingle("one two three")
	if got := Resemblance(a, b); got != 0 {
		t.Fatalf("disjoint resemblance = %v, want 0", got)
	}
}

func TestResemblanceEmpty(t *testing.T) {
	if Resemblance(Set{}, Set{}) != 1 {
		t.Error("two empty sets should resemble 1")
	}
	s := NewShingler(2)
	if Resemblance(Set{}, s.Shingle("a b c")) != 0 {
		t.Error("empty vs nonempty should resemble 0")
	}
}

func TestResemblancePartial(t *testing.T) {
	s := NewShingler(2)
	a := s.Shingle("a b c")   // shingles: ab, bc
	b := s.Shingle("a b c d") // shingles: ab, bc, cd
	got := Resemblance(a, b)  // 2/3
	if got < 0.66 || got > 0.67 {
		t.Fatalf("partial resemblance = %v, want ≈ 2/3", got)
	}
}

func TestResemblanceSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randText(rng, 30)
		b := randText(rng, 30)
		s := NewShingler(3)
		sa, sb := s.Shingle(a), s.Shingle(b)
		return Resemblance(sa, sb) == Resemblance(sb, sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResemblanceRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewShingler(2)
		a := s.Shingle(randText(rng, 20))
		b := s.Shingle(randText(rng, 20))
		r := Resemblance(a, b)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCaseInsensitive(t *testing.T) {
	s := NewShingler(DefaultSize)
	if Resemblance(s.Shingle("The Quick Brown Fox"), s.Shingle("the quick brown fox")) != 1 {
		t.Error("shingling should be case-insensitive")
	}
}

func randText(rng *rand.Rand, n int) string {
	words := []string{"book", "store", "news", "page", "item", "sale", "data", "graph", "web", "link"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[rng.Intn(len(words))])
	}
	return b.String()
}

// TestContainmentEdgeCases pins the divide-by-zero guards the search
// subsystem's scoring relies on: empty and nil sets must score without
// arithmetic panics. Nil maps behave as empty sets, in either argument.
func TestContainmentEdgeCases(t *testing.T) {
	s := NewShingler(4)
	full := s.Shingle("one two three four five six")
	if got := Resemblance(nil, nil); got != 1 {
		t.Fatalf("Resemblance(nil, nil) = %v, want 1", got)
	}
	if got := Resemblance(nil, Set{}); got != 1 {
		t.Fatalf("Resemblance(nil, empty) = %v, want 1", got)
	}
	if got := Resemblance(nil, full); got != 0 {
		t.Fatalf("Resemblance(nil, full) = %v, want 0", got)
	}
	if got := Resemblance(full, nil); got != 0 {
		t.Fatalf("Resemblance(full, nil) = %v, want 0", got)
	}
}

// TestZeroSizeShingler checks that degenerate window sizes fall back
// to the default instead of producing zero-width shingles.
func TestZeroSizeShingler(t *testing.T) {
	for _, size := range []int{0, -1, -100} {
		s := NewShingler(size)
		if s.Size() != DefaultSize {
			t.Fatalf("NewShingler(%d).Size() = %d, want %d", size, s.Size(), DefaultSize)
		}
		set := s.Shingle("a b c d e f g")
		if len(set) == 0 {
			t.Fatalf("NewShingler(%d) produced no shingles", size)
		}
		if got := Resemblance(set, set); got != 1 {
			t.Fatalf("self resemblance = %v", got)
		}
	}
	if set := NewShingler(0).Shingle(""); len(set) != 0 {
		t.Fatalf("empty text shingled to %d entries", len(set))
	}
	if set := NewShingler(0).Shingle("..., !!"); len(set) != 0 {
		t.Fatalf("punctuation-only text shingled to %d entries", len(set))
	}
}
