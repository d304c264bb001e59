package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"

	"graphmatch/internal/graph"
)

// TestReadersRaceWriter runs the store's readers against a live writer
// that appends registers and, every rotateEvery appends, rotates and
// compacts. Every reader must see a prefix of acknowledged seqs and
// nothing else: the replication tail ships contiguous seqs above its
// cursor, none beyond LastSeq, each the exact op written at that seq;
// a read-only view folds to exactly its LastSeq graphs, or fails
// because a file it needed was compacted away.
func TestReadersRaceWriter(t *testing.T) {
	const n, rotateEvery = 300, 37
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	name := func(seq uint64) string { return fmt.Sprintf("g%03d", seq) }

	var finished atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the writer
		defer wg.Done()
		defer finished.Store(true)
		state := make(map[string]*graph.Graph)
		for i := 1; i <= n; i++ {
			g := testGraph(i)
			seq, err := s.Append(Op{Kind: OpRegister, Name: name(uint64(i)), Graph: g})
			if err != nil {
				t.Error(err)
				return
			}
			state[name(seq)] = g
			if i%rotateEvery != 0 {
				continue
			}
			lastSeq, sealed, err := s.Rotate()
			if err == nil {
				err = s.WriteSnapshot(state, lastSeq, sealed)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // the replication tail
		defer wg.Done()
		var from uint64
		for {
			done := finished.Load()
			recs, err := s.ReadSince(from, 16)
			var th *TruncatedHistoryError
			if errors.As(err, &th) {
				from = th.SnapshotSeq // a follower would bootstrap here
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			last := s.Stats().LastSeq
			for _, r := range recs {
				if r.Seq != from+1 || r.Seq > last {
					t.Errorf("ReadSince shipped seq %d after %d with LastSeq %d", r.Seq, from, last)
					return
				}
				want, err := EncodeOp(Op{Seq: r.Seq, Kind: OpRegister, Name: name(r.Seq), Graph: testGraph(int(r.Seq))})
				if err != nil || !bytes.Equal(r.Payload, want) {
					t.Errorf("ReadSince seq %d is not the op written at it (%v)", r.Seq, err)
					return
				}
				from = r.Seq
			}
			if done && len(recs) == 0 {
				if from != n {
					t.Errorf("tail ended at seq %d, want %d", from, n)
				}
				return
			}
		}
	}()
	for !finished.Load() {
		ro, err := OpenReadOnly(dir)
		if err == nil {
			var state map[string]*graph.Graph
			if state, _, err = ro.FoldState(); err == nil {
				if last := ro.Stats().LastSeq; uint64(len(state)) != last {
					t.Errorf("read-only view at seq %d folded to %d graphs", last, len(state))
				}
			}
			ro.Close()
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("read-only view: %v", err)
			break
		}
	}
	wg.Wait()
}
