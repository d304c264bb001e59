//go:build !race

package search

import "testing"

// TestCandidatesColdAllocations: the first stage 1 of a fresh index over
// the web_search-sized catalog, content indexes built, posts all 110
// versions with a bounded number of allocations — a few per version for
// its record, none per posting. The hash → record map it replaced
// allocated about 83 400 times. Excluded under -race, where the detector's
// instrumentation perturbs allocation accounting.
func TestCandidatesColdAllocations(t *testing.T) {
	cat, pattern, p := webSearchCatalog(t)
	buildContentIndexes(t, cat)
	q := SummaryOf(pattern, p.Shingles())
	q.Nodes = p
	allocs := testing.AllocsPerRun(5, func() {
		NewIndex(cat).Candidates(q, Policy{MinResemblance: 0.1})
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 170 {
		t.Fatalf("a cold stage 1 over 110 versions allocates %.0f times, want ≤ 170", allocs)
	}
}
