package shingle

import (
	"hash/fnv"
	"slices"
	"strings"
	"testing"
)

// FuzzResemblance checks metric axioms on arbitrary text inputs: scores
// stay in [0, 1], are symmetric, and identical texts score 1.
func FuzzResemblance(f *testing.F) {
	f.Add("the quick brown fox", "the quick brown fox jumps", 3)
	f.Add("", "anything here", 2)
	f.Add("ünïcödé wörds über alles", "ünïcödé wörds", 1)
	f.Fuzz(func(t *testing.T, a, b string, size int) {
		if size < 0 || size > 32 {
			return
		}
		s := NewShingler(size)
		sa, sb := s.Shingle(a), s.Shingle(b)
		r := Resemblance(sa, sb)
		if r < 0 || r > 1 {
			t.Fatalf("resemblance out of range: %v", r)
		}
		if Resemblance(sb, sa) != r {
			t.Fatal("resemblance asymmetric")
		}
		if Resemblance(sa, sa) != 1 {
			t.Fatal("self-resemblance != 1")
		}
	})
}

// referenceHashes is the shingling AppendHashes replaced, kept as its
// definition: Tokenize, then hash/fnv over every window's tokens joined
// by a zero byte, a text shorter than the window hashing all its tokens.
func referenceHashes(text string, size int) []uint64 {
	tokens := Tokenize(text)
	w := NewShingler(size).Size()
	hash := func(window []string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(strings.Join(window, "\x00")))
		return h.Sum64()
	}
	if len(tokens) == 0 {
		return nil
	}
	if len(tokens) < w {
		return []uint64{hash(tokens)}
	}
	var out []uint64
	for i := 0; i+w <= len(tokens); i++ {
		out = append(out, hash(tokens[i:i+w]))
	}
	return out
}

// FuzzShingleHashes: AppendHashes lists exactly the reference's window
// hashes, in order, after whatever dst held, and Shingle is their set.
func FuzzShingleHashes(f *testing.F) {
	f.Add("The Quick BROWN fox, 42 jumps!", 3)
	f.Add("", 4)
	f.Add("one", 4)
	f.Add("two words", 0)
	f.Add("a1b2 -- c3d4 ... e5;;;f6 g7", 2)
	f.Add("İstanbul straße İİ ß Σίσυφος ǅemal", 1)
	f.Add("ok \xff\xfe bad\xc3 utf8 \xe2\x82 end � x", 2)
	f.Add("Ⱥ ȺȺ Ω Ǳ ﬀ ǈ", 1)
	f.Add(strings.Repeat("w1 w2 w3 ", 20), 32)
	f.Add("a b c d e f g h i j k l m n o p q r s t", 17)
	f.Fuzz(func(t *testing.T, text string, size int) {
		if size < 0 || size > 32 {
			return
		}
		want := referenceHashes(text, size)
		s := NewShingler(size)
		got := s.AppendHashes([]uint64{7}, text)
		if got[0] != 7 || !slices.Equal(got[1:], want) {
			t.Fatalf("AppendHashes(%q, w=%d) = %x, reference %x", text, size, got[1:], want)
		}
		if len(want) > s.MaxHashes(len(text)) {
			t.Fatalf("%q: %d hashes, MaxHashes bounds %d", text, len(want), s.MaxHashes(len(text)))
		}
		set := s.Shingle(text)
		for _, h := range want {
			if _, ok := set[h]; !ok {
				t.Fatalf("Shingle(%q) lacks %x", text, h)
			}
		}
		if len(set) > len(want) {
			t.Fatalf("Shingle(%q) has %d hashes, reference %d", text, len(set), len(want))
		}
	})
}
