//go:build !race

package shingle

import (
	"strings"
	"testing"
)

// Allocation gates for the hashing kernel. Excluded under -race, where
// the detector's instrumentation perturbs allocation accounting.

// TestAppendHashesAllocationFree: with room in dst, hashing a page of
// text touches the heap not once, at the default window and at the
// widest one kept on the stack.
func TestAppendHashesAllocationFree(t *testing.T) {
	texts := map[string]string{
		"ascii":     strings.Repeat("Alpha bravo, CHARLIE delta-echo 42 foxtrot; golf hotel. ", 40),
		"non-ascii": strings.Repeat("İstanbul straße Σίσυφος ǅemal \xff naïve ", 40),
	}
	for name, text := range texts {
		for _, size := range []int{DefaultSize, maxOpen} {
			s := NewShingler(size)
			dst := make([]uint64, 0, len(text))
			if avg := testing.AllocsPerRun(50, func() { dst = s.AppendHashes(dst[:0], text) }); avg != 0 {
				t.Errorf("%s, w=%d: AppendHashes allocates %.2f times per call, want 0", name, size, avg)
			}
		}
	}
}
