package store

import (
	"errors"
	"os"
	"testing"

	"graphmatch/internal/graph"
)

// register is shorthand for appending a register op.
func register(t *testing.T, s *Store, name string, seed int) uint64 {
	t.Helper()
	seq, err := s.Append(Op{Kind: OpRegister, Name: name, Graph: testGraph(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestOpenReadOnlyWhileLive is the flock satellite: a second,
// read-only opener must see the durable state while the owning store
// is live and holding the exclusive directory lock.
func TestOpenReadOnlyWhileLive(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	register(t, rw, "a", 1)
	register(t, rw, "b", 2)

	// A second exclusive open must still fail…
	if _, err := Open(dir); err == nil {
		t.Fatal("second exclusive Open succeeded while the store is live")
	}
	// …but a read-only open succeeds and sees both graphs.
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	state, _, err := ro.FoldState()
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 2 || state["a"] == nil || state["b"] == nil {
		t.Fatalf("read-only FoldState saw %d graphs, want a and b", len(state))
	}

	// The view is point-in-time: ops appended after the read-only open
	// are not visible to it.
	register(t, rw, "c", 3)
	state2, _, err := ro.FoldState()
	if err != nil {
		t.Fatal(err)
	}
	if len(state2) != 2 {
		t.Fatalf("read-only view grew to %d graphs after a concurrent append", len(state2))
	}

	// And the writer is untouched: the read-only open repaired nothing
	// and the exclusive owner keeps appending.
	register(t, rw, "d", 4)
	if got := rw.Stats().LastSeq; got != 4 {
		t.Fatalf("writer LastSeq = %d after read-only open, want 4", got)
	}
}

func TestOpenReadOnlyRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	register(t, rw, "a", 1)
	rw.Close()

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Append(Op{Kind: OpRemove, Name: "a"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Append on read-only store: %v, want ErrReadOnly", err)
	}
	if _, err := ro.AppendAt(Op{Seq: 9, Kind: OpRemove, Name: "a"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AppendAt on read-only store: %v, want ErrReadOnly", err)
	}
	if _, _, err := ro.Rotate(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Rotate on read-only store: %v, want ErrReadOnly", err)
	}
	if err := ro.WriteSnapshot(nil, 1, nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteSnapshot on read-only store: %v, want ErrReadOnly", err)
	}
	if err := ro.ReplaceWithSnapshot(nil, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ReplaceWithSnapshot on read-only store: %v, want ErrReadOnly", err)
	}
}

// TestOpenReadOnlyTornTail: the read-only scan must fence replay at
// the damage without truncating the writer's file.
func TestOpenReadOnlyTornTail(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	register(t, rw, "a", 1)
	register(t, rw, "b", 2)
	segPath := rw.segPath
	rw.Close()

	// Tear the tail: chop the last record mid-payload.
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	tornSize := fi.Size() - 5

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	state, _, err := ro.FoldState()
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 || state["a"] == nil {
		t.Fatalf("read-only FoldState past a torn tail saw %v, want just a", state)
	}
	// The file was not repaired.
	if fi, err := os.Stat(segPath); err != nil || fi.Size() != tornSize {
		t.Fatalf("read-only open changed the segment file: size %d, want %d (err %v)", fi.Size(), tornSize, err)
	}
}

func TestAppendAtPreservesUpstreamSeqs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{3, 4, 7} { // gaps are legal
		if _, err := s.AppendAt(Op{Seq: seq, Kind: OpRegister, Name: string(rune('a' + seq)), Graph: testGraph(int(seq))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendAt(Op{Seq: 7, Kind: OpRemove, Name: "x"}); err == nil {
		t.Fatal("AppendAt accepted a non-advancing seq")
	}
	if got := s.Stats().LastSeq; got != 7 {
		t.Fatalf("LastSeq = %d, want 7", got)
	}
	s.Close()

	// A reopen resumes from the preserved upstream position.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().LastSeq; got != 7 {
		t.Fatalf("reopened LastSeq = %d, want 7", got)
	}
	ops := 0
	if err := s2.Replay(func(Op) error { ops++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ops != 3 {
		t.Fatalf("replayed %d ops, want 3", ops)
	}
}

func TestReplaceWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	register(t, s, "old1", 1)
	register(t, s, "old2", 2)

	state := map[string]*graph.Graph{"new1": testGraph(10), "new2": testGraph(11)}
	if err := s.ReplaceWithSnapshot(state, 42); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LastSeq != 42 || st.SnapshotSeq != 42 {
		t.Fatalf("after replace: LastSeq %d SnapshotSeq %d, want 42/42", st.LastSeq, st.SnapshotSeq)
	}
	// The store keeps appending from the new base.
	if _, err := s.AppendAt(Op{Seq: 43, Kind: OpRegister, Name: "tail", Graph: testGraph(12)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _, err := s2.FoldState()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["new1"] == nil || got["new2"] == nil || got["tail"] == nil {
		t.Fatalf("recovered %d graphs %v, want new1+new2+tail (old history gone)", len(got), names(got))
	}
}

func names(state map[string]*graph.Graph) []string {
	var out []string
	for n := range state {
		out = append(out, n)
	}
	return out
}

func TestReadSince(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 10; i++ {
		register(t, s, string(rune('a'+i)), i)
	}

	// Full tail from 0, batched.
	var got []uint64
	from := uint64(0)
	for {
		recs, err := s.ReadSince(from, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			got = append(got, r.Seq)
			op, err := DecodeOp(r.Payload)
			if err != nil {
				t.Fatalf("payload of seq %d: %v", r.Seq, err)
			}
			if op.Seq != r.Seq {
				t.Fatalf("payload seq %d != record seq %d", op.Seq, r.Seq)
			}
		}
		from = recs[len(recs)-1].Seq
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("tail seqs = %v, want 1..10", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("tailed %d records, want 10", len(got))
	}

	// Mid-log cursor, spanning a rotation.
	if _, _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	register(t, s, "k", 11)
	recs, err := s.ReadSince(9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 10 || recs[1].Seq != 11 {
		t.Fatalf("ReadSince(9) = %v, want seqs 10,11", recSeqs(recs))
	}
}

func recSeqs(recs []Record) []uint64 {
	var out []uint64
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

// TestReadSinceTruncatedHistory: a cursor behind the snapshot demands
// a bootstrap, not a silent partial tail.
func TestReadSinceTruncatedHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	state := make(map[string]*graph.Graph)
	for i := 1; i <= 5; i++ {
		name := string(rune('a' + i))
		register(t, s, name, i)
		state[name] = testGraph(i)
	}
	lastSeq, sealed, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(state, lastSeq, sealed); err != nil {
		t.Fatal(err)
	}
	register(t, s, "z", 99)

	var th *TruncatedHistoryError
	if _, err := s.ReadSince(2, 100); !errors.As(err, &th) {
		t.Fatalf("ReadSince behind the snapshot: %v, want TruncatedHistoryError", err)
	} else if th.SnapshotSeq != lastSeq {
		t.Fatalf("TruncatedHistoryError.SnapshotSeq = %d, want %d", th.SnapshotSeq, lastSeq)
	}
	// At the snapshot boundary the live segment still serves.
	recs, err := s.ReadSince(lastSeq, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != lastSeq+1 {
		t.Fatalf("ReadSince(snapshotSeq) = %v, want the one post-snapshot op", recSeqs(recs))
	}
}

// TestReadSinceIgnoresTornTail: a torn in-flight append must end the
// batch cleanly, then surface once completed.
func TestReadSinceIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	register(t, s, "a", 1)

	// Simulate the writer mid-append: raw garbage past the last record.
	f, err := os.OpenFile(s.segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := s.ReadSince(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("ReadSince with a torn tail = %v, want just seq 1", recSeqs(recs))
	}
}

func TestReplayPlan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]*graph.Graph)
	for i := 1; i <= 4; i++ {
		name := string(rune('a' + i))
		register(t, s, name, i)
		state[name] = testGraph(i)
	}
	lastSeq, sealed, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(state, lastSeq, sealed); err != nil {
		t.Fatal(err)
	}
	register(t, s, "x", 50)
	register(t, s, "y", 51)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// 4 snapshot graphs + 2 WAL ops above the snapshot.
	calls := 0
	if _, _, err := s2.FoldStateObserved(func(done, total int) {
		calls++
		if done != calls || total != 4+2 {
			t.Fatalf("progress call %d = (%d, %d), want (%d, 6)", calls, done, total, calls)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 4+2 {
		t.Fatalf("FoldStateObserved reported %d times, want 6", calls)
	}
}
