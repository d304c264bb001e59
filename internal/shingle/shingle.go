// Package shingle implements Broder-style w-shingling of text and the
// resemblance measure built on it [Broder et al., "Syntactic clustering of
// the Web", 1997 — reference 8 of the paper]. The paper derives its node
// similarity matrix mat() for Web graphs from "common shingles that u and v
// share": each page's text is decomposed into overlapping word w-grams, the
// grams are hashed into a set, and two pages' similarity is the Jaccard
// resemblance of their shingle sets.
package shingle

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// DefaultSize is the shingle width used when a Shingler is created with a
// non-positive size. Four-word shingles are a common choice in the
// literature and work well on the synthetic page text used in this
// repository.
const DefaultSize = 4

// Set is a set of hashed shingles: the reference form that the flat
// builds over AppendHashes (simmatrix's content index and pattern) are
// tested against, not a form the serving path builds.
type Set map[uint64]struct{}

// Shingler turns text into shingle sets with a fixed window size.
type Shingler struct {
	size int
}

// NewShingler returns a Shingler using windows of the given number of
// words; non-positive sizes fall back to DefaultSize.
func NewShingler(size int) *Shingler {
	if size <= 0 {
		size = DefaultSize
	}
	return &Shingler{size: size}
}

// Size reports the shingle width in words.
func (s *Shingler) Size() int { return s.size }

// Tokenize lower-cases text and splits it into maximal runs of letters and
// digits. Punctuation and other separators are discarded, mirroring the
// "meaningful region" normalisation of page checkers. It is the
// definition AppendHashes computes its windows over without building
// the token list.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Shingle computes the hashed shingle set of text: the distinct values
// AppendHashes lists. Like Set and Resemblance, it is the reference the
// flat builds are checked against.
func (s *Shingler) Shingle(text string) Set {
	var stack [64]uint64
	hs := s.AppendHashes(stack[:0], text)
	out := make(Set, len(hs))
	for _, h := range hs {
		out[h] = struct{}{}
	}
	return out
}

// 64-bit FNV-1a, as hash/fnv computes it.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// maxOpen is the widest window AppendHashes keeps on the stack.
const maxOpen = 16

// lowerWord maps an ASCII letter or digit to its lower case, any other
// ASCII byte (a separator to Tokenize) to 0, and every byte of a
// multi-byte rune to itself.
var lowerWord = func() (t [256]byte) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c >= utf8.RuneSelf:
			t[c] = byte(c)
		case 'A' <= c && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		}
	}
	return t
}()

// AppendHashes appends to dst the hash of every w-word window of
// Tokenize(text), in text order and duplicates included: the 64-bit
// FNV-1a of the window's tokens joined by a zero byte. Texts shorter than
// the window contribute a single shingle covering all their tokens, so
// that short but identical labels still resemble each other; empty text
// contributes none.
//
// It reads text once, a run of ASCII letters and digits or one other
// rune at a time, and folds each piece of a token, lower-cased, into the
// hash state of all w windows that hold the token at once, so the w
// chains of multiplies run side by side. Nothing is allocated when dst
// has room (and w ≤ 16).
func (s *Shingler) AppendHashes(dst []uint64, text string) []uint64 {
	w := s.size
	var stack [maxOpen]uint64
	open := stack[:]
	if w > maxOpen {
		open = make([]uint64, w)
	}
	open = open[:w] // open[t%w] hashes the window that starts at token t
	n, slot, in := 0, 0, false
	for i := 0; i <= len(text); {
		j := i
		for j < len(text) && text[j] < utf8.RuneSelf && lowerWord[text[j]] != 0 {
			j++
		}
		piece, width := text[i:j], max(j-i, 1)
		if j == i && i < len(text) && text[i] >= utf8.RuneSelf {
			var r rune
			r, width = utf8.DecodeRuneInString(text[i:])
			if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
				piece = string(r)
			}
		}
		i += width
		switch {
		case piece != "":
			if !in { // token n starts: a zero byte for the windows before it
				in = true
				for k := range open {
					open[k] *= prime64
				}
				open[slot] = offset64
			}
			fold(open, piece)
		case in: // token n ends, and with it the window of token n-w+1
			in = false
			if slot++; slot == w {
				slot = 0
			}
			if n++; n >= w {
				dst = append(dst, open[slot])
			}
		}
	}
	if 0 < n && n < w {
		dst = append(dst, open[0])
	}
	return dst
}

// fold runs FNV-1a over the lower-cased bytes of piece from each of the
// states in open, four states per pass so that their multiply chains
// overlap rather than wait on one another.
func fold(open []uint64, piece string) {
	k := 0
	for ; k+4 <= len(open); k += 4 {
		h0, h1, h2, h3 := open[k], open[k+1], open[k+2], open[k+3]
		for i := 0; i < len(piece); i++ {
			c := uint64(lowerWord[piece[i]])
			h0 = (h0 ^ c) * prime64
			h1 = (h1 ^ c) * prime64
			h2 = (h2 ^ c) * prime64
			h3 = (h3 ^ c) * prime64
		}
		open[k], open[k+1], open[k+2], open[k+3] = h0, h1, h2, h3
	}
	for ; k < len(open); k++ {
		h := open[k]
		for i := 0; i < len(piece); i++ {
			h = (h ^ uint64(lowerWord[piece[i]])) * prime64
		}
		open[k] = h
	}
}

// MaxHashes bounds how many hashes AppendHashes appends for a text of
// the given byte length: tokens are separated, so there are at most
// (length+1)/2 of them.
func (s *Shingler) MaxHashes(length int) int {
	if length == 0 {
		return 0
	}
	return max((length+1)/2-s.size+1, 1)
}

// Resemblance is the Jaccard coefficient |A ∩ B| / |A ∪ B| of two shingle
// sets, the similarity measure of [8]. Two empty sets resemble fully (1);
// one empty set resembles nothing (0). It is the pairwise reference that
// simmatrix's postings build must equal bit for bit.
func Resemblance(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for h := range small {
		if _, ok := large[h]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
