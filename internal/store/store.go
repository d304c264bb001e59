// Package store is the durability subsystem of the serving layer: an
// append-only write-ahead log of catalog mutations (graph register,
// remove, and in-place patch) plus periodic compacted snapshots, both
// in a versioned binary format with per-record checksums. A phomd
// restart replays snapshot + WAL to rebuild the catalog — closures
// rewarm through the ordinary registration path — instead of losing
// every registered graph.
//
// On-disk layout (one directory per store):
//
//	snapshot.snap       compacted state: every graph at WAL position S
//	wal-<startSeq>.log  ordered WAL segments of ops with seq > their start
//	snapshot.tmp        transient; a crash mid-snapshot leaves it behind
//	                    and open removes it
//
// Every mutation is assigned a monotonically increasing sequence
// number, appended to the current WAL segment, and fsynced before the
// mutation is acknowledged — an acknowledged op survives kill -9.
// Snapshots rotate the WAL first (a new segment opens while the
// registry is locked, so the snapshot state and its recorded sequence
// number agree exactly), then write the full state to a temp file and
// atomically rename it in; old segments are deleted only after the
// rename is durable. A crash at any point leaves either the old
// snapshot + old segments or the new snapshot + the new segment, both
// complete.
//
// Recovery trusts checksums, not file sizes. One reader, walkSegment,
// reads every segment record by record: open walks them all and
// truncates the first torn, checksum-corrupt or undecodable record
// (and drops any later, now-unreachable segments). Replay and the
// replication tail visit only records with a seq above their cursor
// and at most the durable seq at the call, so a crash between snapshot
// rename and segment deletion does not double-apply, a record still
// being written is never read, and a read-only view sees exactly the
// intact prefix its own scan found.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphmatch/internal/graph"
)

const (
	walMagic      = "PHOMWAL1"
	snapshotMagic = "PHOMSNP1"
	snapshotName  = "snapshot.snap"
	snapshotTmp   = "snapshot.tmp"
	walPrefix     = "wal-"
	walSuffix     = ".log"
)

// syncWrites gates every fsync. Always true in production; the fuzzer
// turns it off because its throwaway stores need throughput, not
// durability.
var syncWrites = true

// sync fsyncs f when durability is on.
func syncFile(f interface{ Sync() error }) error {
	if !syncWrites {
		return nil
	}
	return f.Sync()
}

// OpKind discriminates WAL records.
type OpKind uint8

// The logged mutation kinds, mirroring the catalog's mutation surface.
const (
	OpRegister OpKind = 1
	OpRemove   OpKind = 2
	OpPatch    OpKind = 3
)

// Op is one logged catalog mutation. Graph is set for OpRegister,
// Patch for OpPatch. Trace optionally carries the W3C traceparent of
// the request that caused the mutation; it is encoded only when
// non-empty (old logs decode unchanged) and ships to replication
// followers verbatim, letting them re-parent applied-op spans under
// the primary's trace context.
type Op struct {
	Seq   uint64
	Kind  OpKind
	Name  string
	Graph *graph.Graph
	Patch *graph.Patch
	Trace string
}

// Stats is a point-in-time snapshot of the store, served alongside the
// engine and catalog counters on /v1/stats.
type Stats struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// LastSeq is the sequence number of the newest durable op.
	LastSeq uint64 `json:"last_seq"`
	// SnapshotSeq is the WAL position of the current snapshot (0 when
	// none exists); ops above it live only in WAL segments.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Appended counts ops logged since the store was opened.
	Appended uint64 `json:"appended"`
	// SinceSnapshot counts ops logged since the last snapshot — the
	// counter Options.SnapshotEvery triggers on.
	SinceSnapshot int `json:"since_snapshot"`
	// Snapshots counts snapshots written since the store was opened.
	Snapshots uint64 `json:"snapshots"`
	// Segments is the number of live WAL segment files.
	Segments int `json:"segments"`
	// WALBytes is the total size of the live WAL segments.
	WALBytes int64 `json:"wal_bytes"`
	// Recovered counts torn or corrupt WAL tails dropped during open —
	// non-zero after a recovery that lost unacknowledged records.
	Recovered int `json:"recovered"`
}

// Store is one open WAL + snapshot directory. It is safe for
// concurrent use; Append serialises internally. Replay must run before
// the first Append (the engine replays during boot, before it installs
// the catalog persister).
type Store struct {
	dir string

	mu          sync.Mutex
	seg         walFile // current append segment (nil when read-only)
	segPath     string
	segRecords  int      // records in the current append segment
	segSize     int64    // bytes in the current append segment
	segs        []string // live segment paths, append order; last is current
	sealed      []string // rotated-out segments awaiting snapshot deletion
	failed      error    // sticky fault: set when the log's tail state is unknown
	seq         uint64   // last durable sequence number
	snapshotSeq uint64
	snapGraphs  int // graphs in the current snapshot (replay workload)
	appended    uint64
	// sinceSnapshot is written under mu but read without it, so the
	// engine's per-mutation snapshot check never waits behind another
	// graph's append, which holds mu across its fsync.
	sinceSnapshot atomic.Int64
	snapshots     uint64
	walBytes      int64
	recovered     int
	closed        bool

	// readOnly marks a store opened by OpenReadOnly: no flock, no
	// append segment, and — critically — no repair. Damage found during
	// the scan ends the view's seq there instead of being truncated, so
	// a live writer's files are never mutated.
	readOnly bool

	lock *os.File // exclusive flock on dir/LOCK, held until Close
}

// Open opens (creating if needed) the store directory, validates every
// WAL segment record by record, and truncates torn or corrupt tails so
// the log ends at the last intact record. The returned store is ready
// for Replay and Append.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One process at a time: a live phomd and an offline compaction on
	// the same directory would append from independent sequence
	// counters and delete each other's segments.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	// A crash mid-snapshot leaves the temp file; it was never renamed,
	// so it is dead weight.
	_ = os.Remove(filepath.Join(dir, snapshotTmp))

	s := &Store{dir: dir, lock: lock}
	if err := s.loadSnapshotHeader(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	if err := s.scanSegments(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	if err := s.openAppendSegment(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	// The compaction trigger counts ops beyond the snapshot; a restart
	// must resume that count from the recovered WAL tail, or a
	// read-mostly server would sit on an oversized log until
	// SnapshotEvery *new* mutations arrive.
	s.sinceSnapshot.Store(int64(s.seq - s.snapshotSeq))
	return s, nil
}

// ErrReadOnly is returned by every mutating method of a store opened
// with OpenReadOnly.
var ErrReadOnly = fmt.Errorf("store: opened read-only")

// OpenReadOnly opens the store for reading while skipping everything
// Open does to claim ownership: no directory flock (a live phomd may
// hold it), no append segment, no removal of a stale snapshot temp
// file, and no truncation of damaged tails. Instead the view's seq is
// the last intact seq its scan found, and Replay, FoldState and
// ReadSince are fenced by it, yielding a consistent point-in-time view
// of the durable state at open. Append, Rotate, WriteSnapshot, and
// friends return ErrReadOnly.
//
// The view is a snapshot: ops the writer appends after OpenReadOnly
// are not visible. If the writer compacts concurrently, the snapshot
// or a segment this view still needs may be replaced or deleted before
// it is replayed; Replay then fails with an error satisfying
// errors.Is(err, os.ErrNotExist) and the caller should simply reopen
// and retry.
func OpenReadOnly(dir string) (*Store, error) {
	s := &Store{dir: dir, readOnly: true}
	if err := s.loadSnapshotHeader(); err != nil {
		return nil, err
	}
	if err := s.scanSegments(); err != nil {
		return nil, err
	}
	s.sinceSnapshot.Store(int64(s.seq - s.snapshotSeq))
	return s, nil
}

// loadSnapshotHeader reads just the snapshot's header record to learn
// its WAL position; the graphs are decoded later, by Replay.
func (s *Store) loadSnapshotHeader() error {
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	seq, count, err := readSnapshotHeader(f)
	if err != nil {
		return fmt.Errorf("store: snapshot %s: %w", snapshotName, err)
	}
	s.snapshotSeq = seq
	s.seq = seq
	s.snapGraphs = count
	return nil
}

// readSnapshotHeader consumes the magic and header record from r.
func readSnapshotHeader(r io.Reader) (lastSeq uint64, count int, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, 0, corruptf("short magic: %v", err)
	}
	if string(magic[:]) != snapshotMagic {
		return 0, 0, corruptf("bad magic %q", magic[:])
	}
	payload, err := readRecord(r)
	if err != nil {
		return 0, 0, corruptf("header record: %v", err)
	}
	d := &dec{buf: payload}
	if lastSeq, err = d.u64(); err != nil {
		return 0, 0, err
	}
	if count, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	return lastSeq, count, nil
}

// scanSegments lists the WAL segments in order and walks every record,
// validating framing, checksums, sequence monotonicity and the op
// encoding. The first damaged record ends the log: the segment is
// truncated there and later segments — unreachable past the hole — are
// deleted. The scan also recovers the last durable sequence number.
func (s *Store) scanSegments() error {
	names, err := filepath.Glob(filepath.Join(s.dir, walPrefix+"*"+walSuffix))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(names) // %016x names sort in numeric = sequence order

	// prev enforces strictly increasing sequence numbers across the
	// whole log (within and across segments): a record duplicated or
	// spliced out of order would otherwise carry a valid checksum, be
	// replayed twice, and break FoldState. Note it starts at 0, not the
	// snapshot's seq — segments sealed into the snapshot but not yet
	// deleted legitimately hold records below it.
	var prev uint64
	for i, path := range names {
		records := 0
		good, err := walkSegment(path, prev, func(seq uint64, payload []byte) error {
			// A record whose checksum holds but whose payload cannot
			// decode is damage, like a checksum failure.
			if _, err := decodeOp(payload); err != nil {
				return err
			}
			prev = seq
			records++
			return nil
		})
		if err != nil && !IsCorrupt(err) {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		s.seq = max(s.seq, prev)
		if good > 0 { // a torn header keeps the segment out of the log
			s.segs = append(s.segs, path)
			s.segRecords = records
			s.walBytes += good
		}
		if err == nil {
			continue
		}
		// Damaged record: drop everything from it on.
		s.recovered++
		if s.readOnly {
			// A reader must not repair: the "damage" may simply be the
			// writer's in-flight append. The view's seq ends at the last
			// intact record and fences every later read there.
			break
		}
		if good == 0 {
			// The header itself was torn: the file has no valid magic.
			// Truncating would leave a magicless segment that accepts
			// appends and then reads as empty on the next open — silently
			// discarding acknowledged ops. Delete it; the append target
			// falls back to the previous segment (whose record count
			// stands) or is recreated with a fresh header.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: removing torn %s: %w", path, err)
			}
		} else if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("store: truncating %s: %w", path, err)
		}
		for _, later := range names[i+1:] {
			s.recovered++
			if err := os.Remove(later); err != nil {
				return fmt.Errorf("store: removing %s: %w", later, err)
			}
		}
		break
	}
	return nil
}

// walkSegment is the one reader of a WAL segment file. It checks the
// magic, then hands each framed record's seq — read from the payload
// head, so nothing decodes a graph it does not need — and payload to
// visit in order. Seqs must strictly increase, starting above prev. A
// torn header, a torn or checksum-failing record and a seq that does
// not advance are damage, returned as an error satisfying IsCorrupt;
// visit's own error ends the walk and is returned as is. good is the
// byte offset just past the last record visit accepted, or 0 when the
// header is torn.
func walkSegment(path string, prev uint64, visit func(seq uint64, payload []byte) error) (good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != walMagic {
		// Still mid-write by the segment's creator, or torn by a crash.
		return 0, corruptf("torn segment header")
	}
	good = int64(len(magic))
	for {
		payload, err := readRecord(r)
		if err == io.EOF {
			return good, nil
		}
		if err == io.ErrUnexpectedEOF {
			return good, corruptf("torn record at offset %d", good)
		}
		if err != nil {
			return good, err
		}
		seq, err := (&dec{buf: payload}).u64()
		if err != nil {
			return good, err
		}
		if seq <= prev {
			return good, corruptf("seq %d after %d at offset %d", seq, prev, good)
		}
		if err := visit(seq, payload); err != nil {
			return good, err
		}
		good += recordSize(payload)
		prev = seq
	}
}

// openAppendSegment opens the last live segment for appending, or
// starts a fresh one when the directory has none.
func (s *Store) openAppendSegment() error {
	if len(s.segs) == 0 {
		return s.startSegment()
	}
	path := s.segs[len(s.segs)-1]
	f, err := openWALFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.seg, s.segPath, s.segSize = f, path, fi.Size()
	return nil
}

// startSegment creates and syncs a new WAL segment named after the
// next sequence number, making it the append target. Callers hold s.mu
// (or have exclusive access during Open).
func (s *Store) startSegment() error {
	path := filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", walPrefix, s.seq+1, walSuffix))
	f, err := s.createSegment(path)
	if err != nil {
		return err
	}
	s.seg, s.segPath, s.segSize = f, path, int64(len(walMagic))
	s.segRecords = 0
	s.segs = append(s.segs, path)
	s.walBytes += int64(len(walMagic))
	return nil
}

// createSegment creates and syncs a segment file without touching the
// store's state, so a failure (disk full) leaves the current append
// target untouched. O_APPEND matters even on a fresh file: a rolled-
// back append truncates the segment, and a positional fd would keep
// writing at its old offset afterwards, leaving a zero-filled hole
// that recovery reads as damage — silently dropping every later
// acknowledged op.
func (s *Store) createSegment(path string) (walFile, error) {
	f, err := openWALFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syncFile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// Replay streams the persisted state to apply in its durable order:
// first every snapshot graph (as OpRegister with the snapshot's
// sequence number), then every WAL op newer than the snapshot, up to
// the durable seq. An apply error aborts the replay and is returned.
// Replay must complete before the first Append.
func (s *Store) Replay(apply func(Op) error) error {
	snapSeq, err := s.replaySnapshot(apply)
	if err != nil {
		return err
	}
	return s.walkDurable(snapSeq, func(seq uint64, payload []byte) error {
		op, err := decodeOp(payload)
		if err != nil {
			return err
		}
		return apply(op)
	}, func(path string, err error) error {
		// Open validated (and possibly truncated) every segment, so
		// damage here is an I/O failure, not a recoverable tail.
		return fmt.Errorf("store: replaying %s: %w", path, err)
	})
}

// replaySnapshot decodes the snapshot's graphs, feeds them to apply and
// returns the snapshot's seq. That must be the seq open found: a
// read-only view whose snapshot the writer has since replaced fails
// like one whose segment was compacted away.
func (s *Store) replaySnapshot(apply func(Op) error) (uint64, error) {
	s.mu.Lock()
	want := s.snapshotSeq
	s.mu.Unlock()
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if os.IsNotExist(err) && want == 0 {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	lastSeq, count, err := readSnapshotHeader(f)
	if err != nil {
		return 0, fmt.Errorf("store: snapshot: %w", err)
	}
	if lastSeq != want {
		return 0, fmt.Errorf("store: snapshot at seq %d replaced by seq %d: %w", want, lastSeq, os.ErrNotExist)
	}
	for i := 0; i < count; i++ {
		payload, err := readRecord(f)
		if err != nil {
			return 0, fmt.Errorf("store: snapshot graph %d/%d: %w", i+1, count, err)
		}
		name, g, err := DecodeNamedGraph(payload)
		if err != nil {
			return 0, fmt.Errorf("store: snapshot graph %d/%d: %w", i+1, count, err)
		}
		if err := apply(Op{Seq: lastSeq, Kind: OpRegister, Name: name, Graph: g}); err != nil {
			return 0, err
		}
	}
	return lastSeq, nil
}

// errStop ends a walkDurable early, without an error.
var errStop = errors.New("store: stop walking")

// walkDurable visits, in seq order, every WAL record with from < seq ≤
// the durable seq read at the call. That fence keeps a reader off a
// record still being written or rolled back, and holds a read-only
// view to the intact prefix its scan found. A cursor behind the
// snapshot is a TruncatedHistoryError. visit returning errStop ends
// the walk cleanly. Any other error of visit, and a segment's damage or
// I/O error, goes to fail: nil moves on to the next segment, an error
// ends the walk with it.
func (s *Store) walkDurable(from uint64, visit func(seq uint64, payload []byte) error, fail func(path string, err error) error) error {
	s.mu.Lock()
	hi, snapSeq := s.seq, s.snapshotSeq
	segs := append(append([]string(nil), s.sealed...), s.segs...)
	s.mu.Unlock()
	if from < snapSeq {
		return &TruncatedHistoryError{SnapshotSeq: snapSeq}
	}
	for i, path := range segs {
		if from >= hi {
			return nil
		}
		// Segment names carry the seq the segment was started at; every
		// record in it is ≥ that, and every record in its predecessors
		// is below it. A successor starting at or below from+1 proves
		// this whole segment is behind the cursor, so it is not read.
		if i+1 < len(segs) {
			if next, ok := segStartSeq(segs[i+1]); ok && next <= from+1 {
				continue
			}
		}
		_, err := walkSegment(path, 0, func(seq uint64, payload []byte) error {
			if seq > from && seq <= hi {
				if err := visit(seq, payload); err != nil {
					return err
				}
				from = seq
			}
			if seq >= hi {
				return errStop
			}
			return nil
		})
		if err == errStop {
			return nil
		}
		if err != nil {
			if err := fail(path, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append assigns the next sequence number to op, writes it to the
// current WAL segment, and fsyncs before returning — when Append
// returns nil the op is durable. The engine calls it through the
// catalog's persister hook, under the catalog lock, so the log order
// is exactly the mutation order.
func (s *Store) Append(op Op) (uint64, error) {
	seq, _, err := s.AppendTimed(op)
	return seq, err
}

// AppendTiming breaks an append's latency into its total and the
// fsync portion, for callers attaching the durability cost to a
// request trace and to their metrics.
type AppendTiming struct {
	Total time.Duration
	Fsync time.Duration
}

// AppendTimed is Append returning per-phase timings alongside the
// assigned sequence number.
func (s *Store) AppendTimed(op Op) (uint64, AppendTiming, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendGuard(); err != nil {
		return 0, AppendTiming{}, err
	}
	op.Seq = s.seq + 1
	tm, err := s.appendLocked(op)
	if err != nil {
		return 0, tm, err
	}
	return op.Seq, tm, nil
}

// AppendAt appends an op that already carries its sequence number —
// the replication path, where the primary assigned the seq and the
// follower must persist it verbatim so a restarted follower resumes
// from the exact upstream position. The seq must be beyond the last
// durable one; gaps are legal (a bootstrap resets the base), going
// backwards is not. Like AppendTimed, it returns the append's timings.
func (s *Store) AppendAt(op Op) (AppendTiming, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendGuard(); err != nil {
		return AppendTiming{}, err
	}
	if op.Seq <= s.seq {
		return AppendTiming{}, fmt.Errorf("store: AppendAt seq %d not beyond durable seq %d", op.Seq, s.seq)
	}
	return s.appendLocked(op)
}

// appendGuard rejects appends on a store that cannot take them.
func (s *Store) appendGuard() error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.readOnly {
		return ErrReadOnly
	}
	if s.failed != nil {
		return fmt.Errorf("store: failed: %w", s.failed)
	}
	return nil
}

// appendLocked writes op — seq already assigned — to the current
// segment and fsyncs. Callers hold s.mu and have passed appendGuard.
func (s *Store) appendLocked(op Op) (AppendTiming, error) {
	payload, err := encodeOp(op)
	if err != nil {
		return AppendTiming{}, err
	}
	// A failed (= vetoed) append must leave the segment exactly as it
	// was: partial record bytes would make recovery truncate away every
	// LATER acknowledged op, and a fully written but unacknowledged
	// record would replay a mutation the caller was told failed. Roll
	// the file back to the pre-write size; if even that fails, the tail
	// state is unknown and the store goes sticky-failed rather than
	// risk acknowledging ops after garbage.
	rollback := func(cause error) error {
		if terr := s.seg.Truncate(s.segSize); terr != nil {
			s.failed = fmt.Errorf("rollback of %s to %d after %v: %w", s.segPath, s.segSize, cause, terr)
			return fmt.Errorf("store: %w", s.failed)
		}
		return cause
	}
	start := time.Now()
	if err := writeRecord(s.seg, payload); err != nil {
		return AppendTiming{}, rollback(fmt.Errorf("store: appending to %s: %w", s.segPath, err))
	}
	syncStart := time.Now()
	if err := syncFile(s.seg); err != nil {
		return AppendTiming{}, rollback(fmt.Errorf("store: syncing %s: %w", s.segPath, err))
	}
	tm := AppendTiming{Fsync: time.Since(syncStart)}
	tm.Total = time.Since(start)
	s.seq = op.Seq
	s.appended++
	s.sinceSnapshot.Add(1)
	s.segRecords++
	s.segSize += recordSize(payload)
	s.walBytes += recordSize(payload)
	return tm, nil
}

// Rotate seals the current WAL segment and starts a new one, returning
// the last durable sequence number and the sealed segments. It is the
// first half of a snapshot and must run while the registry cannot
// mutate (the engine calls it inside catalog.Export, under the catalog
// lock) so the exported state corresponds exactly to lastSeq.
func (s *Store) Rotate() (lastSeq uint64, sealed []string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, fmt.Errorf("store: closed")
	}
	if s.readOnly {
		return 0, nil, ErrReadOnly
	}
	if s.segRecords == 0 {
		// The current segment holds nothing: keep appending to it and
		// seal only the earlier segments. This also avoids a name
		// collision — a fresh segment would be named after the same
		// next sequence number the empty one already claims.
		s.sealed = append(s.sealed, s.segs[:len(s.segs)-1]...)
		s.segs = s.segs[len(s.segs)-1:]
		return s.seq, append([]string(nil), s.sealed...), nil
	}
	// Create the successor before closing the current segment, so a
	// creation failure (disk full) leaves the store fully serviceable —
	// the snapshot attempt fails, appends continue, a later attempt
	// retries the rotation.
	path := filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", walPrefix, s.seq+1, walSuffix))
	f, err := s.createSegment(path)
	if err != nil {
		return 0, nil, err
	}
	if err := s.seg.Close(); err != nil {
		f.Close()
		os.Remove(path)
		return 0, nil, fmt.Errorf("store: sealing %s: %w", s.segPath, err)
	}
	// Sealed segments accumulate until a snapshot actually deletes them:
	// if this snapshot attempt fails after the rotation (disk full, say),
	// the next attempt's sealed list still carries these files, so they
	// are reclaimed instead of orphaned until restart.
	s.sealed = append(s.sealed, s.segs...)
	s.seg, s.segPath, s.segSize = f, path, int64(len(walMagic))
	s.segRecords = 0
	s.segs = []string{path}
	s.walBytes += int64(len(walMagic))
	return s.seq, append([]string(nil), s.sealed...), nil
}

// WriteSnapshot persists state — the full registry at WAL position
// lastSeq, as returned by Rotate — and then deletes the sealed
// segments its ops came from. The snapshot is written to a temp file,
// fsynced, and renamed over the previous snapshot, so a crash leaves
// either the old snapshot (sealed segments still present) or the new
// one (sealed segments' ops all at or below lastSeq, skipped by
// replay); both recover exactly.
func (s *Store) WriteSnapshot(state map[string]*graph.Graph, lastSeq uint64, sealed []string) error {
	s.mu.Lock()
	ro := s.readOnly
	s.mu.Unlock()
	if ro {
		return ErrReadOnly
	}
	if err := writeSnapshotFile(s.dir, state, lastSeq); err != nil {
		return err
	}
	// The rename is durable: the sealed segments' ops are all ≤ lastSeq
	// and would be skipped by replay anyway. Reclaim them.
	var sealedBytes int64
	deleted := make(map[string]bool, len(sealed))
	for _, path := range sealed {
		if fi, err := os.Stat(path); err == nil {
			sealedBytes += fi.Size()
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: removing sealed %s: %w", path, err)
		}
		deleted[path] = true
	}
	s.mu.Lock()
	s.snapshotSeq = lastSeq
	s.snapGraphs = len(state)
	s.snapshots++
	// Ops may have been appended while the snapshot was encoding; the
	// exact count of not-yet-folded ops is the sequence distance, not 0.
	s.sinceSnapshot.Store(int64(s.seq - lastSeq))
	s.walBytes -= sealedBytes
	kept := s.sealed[:0]
	for _, path := range s.sealed {
		if !deleted[path] {
			kept = append(kept, path)
		}
	}
	s.sealed = kept
	s.mu.Unlock()
	return nil
}

// writeSnapshotFile encodes state at WAL position lastSeq to the
// snapshot temp file, fsyncs it, and atomically renames it into place.
// It touches no Store state — WriteSnapshot and ReplaceWithSnapshot
// share it and account for the result themselves.
func writeSnapshotFile(dir string, state map[string]*graph.Graph, lastSeq uint64) error {
	names := make([]string, 0, len(state))
	for n := range state {
		names = append(names, n)
	}
	sort.Strings(names)

	tmpPath := filepath.Join(dir, snapshotTmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	werr := func() error {
		defer f.Close()
		if _, err := f.Write([]byte(snapshotMagic)); err != nil {
			return err
		}
		hdr := &enc{}
		hdr.u64(lastSeq)
		hdr.uvarint(len(names))
		if err := writeRecord(f, hdr.buf); err != nil {
			return err
		}
		for _, name := range names {
			if err := writeRecord(f, EncodeNamedGraph(name, state[name])); err != nil {
				return err
			}
		}
		return syncFile(f)
	}()
	if werr != nil {
		return fmt.Errorf("store: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// ReplaceWithSnapshot discards the store's entire history and restarts
// it from state at WAL position seq — the follower's landing path for
// a replication bootstrap, whose state comes from the primary's
// catalog export rather than the local log. Ordering makes a crash at
// any point recoverable: the old segments are deleted first (recovery
// then lands on the old snapshot, an older-but-consistent position the
// follower simply re-requests), the new snapshot is renamed in second
// (recovery lands exactly on seq), and a fresh append segment opens
// last. A failure mid-replace leaves the log's shape unknown, so the
// store goes sticky-failed rather than risk appending after it.
func (s *Store) ReplaceWithSnapshot(state map[string]*graph.Graph, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.readOnly {
		return ErrReadOnly
	}
	if s.failed != nil {
		return fmt.Errorf("store: failed: %w", s.failed)
	}
	fail := func(err error) error {
		s.failed = err
		return fmt.Errorf("store: replacing with snapshot: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fail(err)
	}
	for _, path := range append(append([]string(nil), s.sealed...), s.segs...) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fail(err)
		}
	}
	s.sealed, s.segs = nil, nil
	s.seg, s.segPath, s.segSize, s.segRecords, s.walBytes = nil, "", 0, 0, 0
	if err := writeSnapshotFile(s.dir, state, seq); err != nil {
		return fail(err)
	}
	s.seq = seq
	s.snapshotSeq = seq
	s.snapGraphs = len(state)
	s.snapshots++
	s.sinceSnapshot.Store(0)
	if err := s.startSegment(); err != nil {
		return fail(err)
	}
	return nil
}

// SinceSnapshot reports how many ops were appended after the last
// snapshot — the engine's SnapshotEvery trigger reads it after each
// mutation. It takes no lock, so it returns while an append is fsyncing.
func (s *Store) SinceSnapshot() int {
	return int(s.sinceSnapshot.Load())
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:           s.dir,
		LastSeq:       s.seq,
		SnapshotSeq:   s.snapshotSeq,
		Appended:      s.appended,
		SinceSnapshot: int(s.sinceSnapshot.Load()),
		Snapshots:     s.snapshots,
		Segments:      len(s.segs) + len(s.sealed),
		WALBytes:      s.walBytes,
		Recovered:     s.recovered,
	}
}

// Close fsyncs and closes the append segment. Appends after Close fail;
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.lock != nil {
		defer unlockDir(s.lock)
	}
	if s.seg == nil {
		return nil // read-only stores have no append segment
	}
	if err := syncFile(s.seg); err != nil {
		s.seg.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Abandon simulates a crash: it drops the append segment without the
// final sync and releases the directory lock, leaving the files
// exactly as kill -9 would (every acknowledged append is already
// fsynced, so nothing owed is lost — that is the durability contract
// under test). Appends after Abandon fail. Real code paths use Close.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.seg != nil {
		_ = s.seg.Close()
	}
	if s.lock != nil {
		unlockDir(s.lock)
	}
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := syncFile(d); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

// FoldState replays the store into an in-memory registry, applying
// every op semantically: the result maps each surviving name to its
// final graph (registers replayed, patches applied in order, removed
// names absent). Boot-time recovery consumes this instead of pushing
// every op through the live catalog — a graph patched a thousand times
// gets one closure build, not a thousand — and offline compaction
// snapshots it directly. replayed counts the WAL ops applied on top of
// the snapshot. FoldState must run before the first Append.
func (s *Store) FoldState() (state map[string]*graph.Graph, replayed int, err error) {
	return s.FoldStateObserved(nil)
}

// FoldStateObserved is FoldState with a progress callback: progress
// fires after each op folds in (snapshot graphs and WAL ops alike) with
// the ops done so far and the total, the snapshot's graphs plus the WAL
// ops above it, so boot can estimate replay time remaining for its
// Retry-After header.
func (s *Store) FoldStateObserved(progress func(done, total int)) (state map[string]*graph.Graph, replayed int, err error) {
	s.mu.Lock()
	snapSeq := s.snapshotSeq
	done, total := 0, s.snapGraphs+int(s.seq-s.snapshotSeq)
	s.mu.Unlock()
	state = make(map[string]*graph.Graph)
	err = s.Replay(func(op Op) error {
		if progress != nil {
			defer func() { done++; progress(done, total) }()
		}
		switch op.Kind {
		case OpRegister:
			if _, dup := state[op.Name]; dup {
				return fmt.Errorf("store: duplicate register of %q at seq %d", op.Name, op.Seq)
			}
			state[op.Name] = op.Graph
		case OpRemove:
			if _, ok := state[op.Name]; !ok {
				return fmt.Errorf("store: remove of unknown graph %q at seq %d", op.Name, op.Seq)
			}
			delete(state, op.Name)
		case OpPatch:
			g, ok := state[op.Name]
			if !ok {
				return fmt.Errorf("store: patch for unknown graph %q at seq %d", op.Name, op.Seq)
			}
			ng, err := g.ApplyPatch(op.Patch)
			if err != nil {
				return fmt.Errorf("store: replaying patch for %q at seq %d: %w", op.Name, op.Seq, err)
			}
			state[op.Name] = ng
		default:
			return fmt.Errorf("store: unknown op kind %d at seq %d", op.Kind, op.Seq)
		}
		if op.Seq > snapSeq {
			replayed++
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return state, replayed, nil
}

// CompactInfo reports what an offline compaction did.
type CompactInfo struct {
	// Graphs is the number of graphs in the written snapshot.
	Graphs int
	// LastSeq is the WAL position the snapshot captures.
	LastSeq uint64
	// ReplayedOps is the number of WAL ops folded in.
	ReplayedOps int
}

// Compact is the offline compaction behind `phom compact -store DIR`:
// it replays the store into memory, writes a fresh snapshot, and
// deletes the replayed WAL segments — run it while the server is down
// to bound the next boot's replay work. The store must not be open
// elsewhere.
func Compact(dir string) (CompactInfo, error) {
	s, err := Open(dir)
	if err != nil {
		return CompactInfo{}, err
	}
	defer s.Close()

	state, ops, err := s.FoldState()
	if err != nil {
		return CompactInfo{}, err
	}
	lastSeq, sealed, err := s.Rotate()
	if err != nil {
		return CompactInfo{}, err
	}
	if err := s.WriteSnapshot(state, lastSeq, sealed); err != nil {
		return CompactInfo{}, err
	}
	return CompactInfo{Graphs: len(state), LastSeq: lastSeq, ReplayedOps: ops}, nil
}
