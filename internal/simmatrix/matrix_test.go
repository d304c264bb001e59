package simmatrix

import (
	"testing"

	"graphmatch/internal/graph"
)

func TestDense(t *testing.T) {
	d := NewDense(2, 3)
	if d.Rows() != 2 || d.Cols() != 3 {
		t.Fatalf("dims = %d×%d", d.Rows(), d.Cols())
	}
	d.Set(1, 2, 0.8)
	if got := d.Score(1, 2); got != 0.8 {
		t.Fatalf("Score = %v, want 0.8", got)
	}
	if got := d.Score(0, 0); got != 0 {
		t.Fatalf("unset Score = %v, want 0", got)
	}
}

func TestSparse(t *testing.T) {
	sp := NewSparse()
	sp.Set(3, 4, 0.6)
	if got := sp.Score(3, 4); got != 0.6 {
		t.Fatalf("Score = %v, want 0.6", got)
	}
	if got := sp.Score(4, 3); got != 0 {
		t.Fatalf("transposed Score = %v, want 0", got)
	}
	if sp.Len() != 1 {
		t.Fatalf("Len = %d, want 1", sp.Len())
	}
}

func TestLabelEquality(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"A", "B"}, nil)
	g2 := graph.FromEdgeList([]string{"B", "A"}, nil)
	le := NewLabelEquality(g1, g2)
	if le.Score(0, 1) != 1 {
		t.Error("A vs A should score 1")
	}
	if le.Score(0, 0) != 0 {
		t.Error("A vs B should score 0")
	}
}

func TestFromContent(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"p"}, nil)
	g1.SetContent(0, "science fiction books for young readers")
	g2 := graph.FromEdgeList([]string{"q", "r"}, nil)
	g2.SetContent(0, "science fiction books for young readers")
	g2.SetContent(1, "totally unrelated gardening supplies catalogue")
	d := FromContent(g1, g2, 3)
	if got := d.Score(0, 0); got != 1 {
		t.Errorf("identical content Score = %v, want 1", got)
	}
	if got := d.Score(0, 1); got != 0 {
		t.Errorf("unrelated content Score = %v, want 0", got)
	}
}

func TestFromContentFallsBackToLabel(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"books about history"}, nil)
	g2 := graph.FromEdgeList([]string{"books about history"}, nil)
	d := FromContent(g1, g2, 2)
	if d.Score(0, 0) != 1 {
		t.Error("label fallback should make identical labels score 1")
	}
}

func TestCandidates(t *testing.T) {
	g1 := graph.FromEdgeList([]string{"a", "b"}, nil)
	g2 := graph.FromEdgeList([]string{"x", "y", "z"}, nil)
	d := NewDense(2, 3)
	d.Set(0, 0, 0.9)
	d.Set(0, 1, 0.5)
	d.Set(1, 2, 0.75)
	cands := Candidates(g1, g2, d, 0.75)
	if len(cands[0]) != 1 || cands[0][0] != 0 {
		t.Errorf("cands[0] = %v, want [0]", cands[0])
	}
	if len(cands[1]) != 1 || cands[1][0] != 2 {
		t.Errorf("cands[1] = %v, want [2]", cands[1])
	}
	// Threshold is inclusive.
	cands = Candidates(g1, g2, d, 0.5)
	if len(cands[0]) != 2 {
		t.Errorf("cands[0] at ξ=0.5 = %v, want two entries", cands[0])
	}
}

func TestConstant(t *testing.T) {
	c := Constant(0.42)
	if c.Score(1, 2) != 0.42 {
		t.Error("Constant should score its value")
	}
}
