package store

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphmatch/internal/graph"
)

// FuzzWALReplay throws arbitrary bytes at the WAL recovery path: open
// must never panic and never fail on damaged data — it recovers the
// longest intact record prefix — and the recovered store must replay
// cleanly and accept new appends. The seed corpus includes a valid
// segment so mutations explore near-valid framing (flipped checksums,
// truncated payloads, oversized length prefixes), not just noise.
func FuzzWALReplay(f *testing.F) {
	// Seed: a well-formed segment with one op of each kind.
	seedDir := f.TempDir()
	s, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	g := graph.FromEdgeList([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
	g.SetContent(0, "seed content")
	ops := []Op{
		{Kind: OpRegister, Name: "g", Graph: g},
		{Kind: OpPatch, Name: "g", Patch: &graph.Patch{
			AddNodes: []graph.Node{{Label: "D", Weight: 1}},
			AddEdges: [][2]graph.NodeID{{2, 3}},
			DelEdges: [][2]graph.NodeID{{0, 1}},
		}},
		{Kind: OpRemove, Name: "g"},
	}
	for _, op := range ops {
		if _, err := s.Append(op); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(seedDir, walPrefix+"*"+walSuffix))
	if len(segs) != 1 {
		f.Fatalf("seed store has %d segments", len(segs))
	}
	seed, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])         // torn tail
	f.Add([]byte(walMagic))           // empty segment
	f.Add([]byte{})                   // no header at all
	f.Add([]byte("PHOMWAL1\xff\xff")) // garbage after header

	// Throwaway stores: durability syncs off, for fuzz throughput.
	syncWrites = false
	defer func() { syncWrites = true }()

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walPrefix+"0000000000000001"+walSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("open failed on damaged WAL (must recover instead): %v", err)
		}
		defer st.Close()
		var replayed []uint64
		if err := st.Replay(func(op Op) error {
			if n := len(replayed); n > 0 && op.Seq <= replayed[n-1] {
				t.Fatalf("non-monotonic replay: seq %d after %d", op.Seq, replayed[n-1])
			}
			replayed = append(replayed, op.Seq)
			if op.Kind == OpRegister && op.Graph == nil {
				t.Fatal("register op without graph survived recovery")
			}
			if op.Kind == OpPatch && op.Patch == nil {
				t.Fatal("patch op without patch survived recovery")
			}
			return nil
		}); err != nil {
			t.Fatalf("replay failed after successful open: %v", err)
		}
		// The replication tail reads the same records replay does.
		recs, err := st.ReadSince(0, math.MaxInt)
		if err != nil {
			t.Fatalf("ReadSince after recovery: %v", err)
		}
		if got := recSeqs(recs); !slices.Equal(got, replayed) {
			t.Fatalf("ReadSince(0) = %v, Replay visited %v", got, replayed)
		}
		// The recovered store must keep serving.
		if _, err := st.Append(Op{Kind: OpRemove, Name: "post-recovery"}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
