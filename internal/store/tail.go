package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The replication tail reader. The primary's replicate endpoint polls
// ReadSince to ship WAL records past the follower's position; it works
// on any open store (the owning one — a read-only open sees only its
// frozen point-in-time view, so a live primary serves from its own
// handle).

// Record is one framed WAL op exactly as stored: its sequence number
// and the raw, CRC-validated payload. Payloads ship over the wire
// verbatim — the primary never decodes graphs just to forward them —
// and DecodeOp parses them on the follower.
type Record struct {
	Seq     uint64
	Payload []byte
}

// TruncatedHistoryError reports that the requested position precedes
// the store's snapshot: the records were (or may already have been)
// compacted away, and the reader needs a full bootstrap instead of a
// tail.
type TruncatedHistoryError struct {
	// SnapshotSeq is the oldest position the WAL can still serve from.
	SnapshotSeq uint64
}

func (e *TruncatedHistoryError) Error() string {
	return fmt.Sprintf("store: history before seq %d is compacted away", e.SnapshotSeq)
}

// ReadSince returns up to max WAL records with sequence numbers beyond
// from, in order. It reads the segment files directly, without holding
// the store lock across I/O, so a streaming replicator does not stall
// appends. Concurrent activity is handled, not locked out:
//
//   - records are capped at the last *acknowledged* seq, so an append
//     that is mid-write (or about to be rolled back after a failed
//     fsync) is never shipped;
//   - a torn or corrupt record ends that segment's batch, and the read
//     goes on with the next segment;
//   - a segment deleted by a concurrent compaction is skipped if its
//     records were already behind from, and reported as
//     TruncatedHistoryError otherwise.
//
// An empty batch with a nil error means the caller is caught up.
func (s *Store) ReadSince(from uint64, max int) ([]Record, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("store: closed")
	}
	var recs []Record
	err := s.walkDurable(from, func(seq uint64, payload []byte) error {
		if len(recs) >= max {
			return errStop
		}
		recs = append(recs, Record{Seq: seq, Payload: payload})
		from = seq
		return nil
	}, func(path string, err error) error {
		if IsCorrupt(err) {
			return nil // the writer racing us: re-read next call
		}
		if !os.IsNotExist(err) {
			return fmt.Errorf("store: tailing %s: %w", path, err)
		}
		// Compacted away mid-read. Harmless iff its records were all
		// behind the cursor, which holds exactly when the cursor is
		// still at or past the (possibly just-advanced) snapshot
		// position.
		s.mu.Lock()
		snapSeq := s.snapshotSeq
		s.mu.Unlock()
		if from >= snapSeq {
			return nil
		}
		return &TruncatedHistoryError{SnapshotSeq: snapSeq}
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// segStartSeq parses the starting sequence number a segment file was
// named after.
func segStartSeq(path string) (uint64, bool) {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
