package experiments

import (
	"strings"
	"testing"
)

func TestRunAblations(t *testing.T) {
	// Qualities are pinned exactly: they do not depend on timing, so a
	// dropped ArbitraryPick or a miswired naive solver shows here. The
	// partition and compression studies run on instances that embed
	// fully, so every variant there must find the whole pattern.
	want := []AblationRow{
		{Study: "direct-vs-naive", Variant: "direct", QualCard: 1},
		{Study: "direct-vs-naive", Variant: "naive-product", QualCard: 0.875},
		{Study: "partition-g1", Variant: "direct", QualCard: 1},
		{Study: "partition-g1", Variant: "partitioned", QualCard: 1},
		{Study: "compress-g2", Variant: "raw-closure", QualCard: 1},
		{Study: "compress-g2", Variant: "compressed", QualCard: 1},
		{Study: "pick-order", Variant: "max-good", QualCard: 0.90625},
		{Study: "pick-order", Variant: "arbitrary", QualCard: 0.8125},
	}
	rows := RunAblations(64, 3)
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d (4 studies × 2 variants)", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Seconds < 0 {
			t.Errorf("%s/%s: negative time", r.Study, r.Variant)
		}
		if w := want[i]; r.Study != w.Study || r.Variant != w.Variant || r.QualCard != w.QualCard {
			t.Errorf("row %d = %s/%s qualCard %v, want %s/%s %v", i, r.Study, r.Variant, r.QualCard, w.Study, w.Variant, w.QualCard)
		}
	}
	text := FormatAblations(rows)
	if !strings.Contains(text, "direct-vs-naive") || !strings.Contains(text, "qualCard") {
		t.Fatalf("FormatAblations malformed:\n%s", text)
	}
}
