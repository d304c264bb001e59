package repl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"graphmatch/internal/graph"
	"graphmatch/internal/store"
)

// Source is the primary side's view of the serving engine: the store
// whose WAL is shipped and the catalog export that backs bootstraps.
type Source struct {
	Store *store.Store
	// Export returns the full catalog under its lock; prepare runs
	// while the lock is held, exactly like catalog.Export, so a
	// bootstrap captures the store seq the state corresponds to (the
	// persister appends under the same lock — no mutation can land
	// between reading the seq and copying the state).
	Export func(prepare func()) map[string]*graph.Graph
}

// HandlerOptions tune the stream; zero values take the defaults.
type HandlerOptions struct {
	// Poll is the idle sleep between WAL reads once caught up.
	Poll time.Duration
	// CheckpointEvery bounds the keepalive interval: a caught-up
	// stream still emits a checkpoint this often, so the follower's
	// stall detector can tell a quiet primary from a dead link.
	CheckpointEvery time.Duration
	// BatchRecords caps records read (and frames written) per WAL
	// visit.
	BatchRecords int
}

func (o *HandlerOptions) defaults() {
	if o.Poll <= 0 {
		o.Poll = 50 * time.Millisecond
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = time.Second
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = 256
	}
}

// NewHandler serves GET /v1/replicate/since/{seq}: an unbounded
// chunked stream of frames shipping every WAL record past {seq}, then
// following the log live until the client disconnects. A {seq} ahead
// of the primary's log is a diverged follower and answers 409; a
// {seq} behind the snapshot horizon (or an explicit ?resync=1) gets a
// bootstrap — the full catalog at an exact seq — before tailing.
func NewHandler(src *Source, opts HandlerOptions) http.Handler {
	opts.defaults()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad seq: %v", err))
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			httpError(w, http.StatusInternalServerError, "response writer cannot stream")
			return
		}
		st := src.Store.Stats()
		resync := r.URL.Query().Get("resync") == "1"
		if from > st.LastSeq && !resync {
			// The follower claims a position this log never reached: it
			// applied records the primary has no memory of (a rolled-back
			// primary, or cross-wired stores). Only a full resync fixes it
			// — which is exactly what the 409 tells the follower to
			// request, so a resync=1 retry must not bounce off this check.
			httpError(w, http.StatusConflict, fmt.Sprintf(
				"follower at seq %d is ahead of primary at seq %d: diverged, resync required", from, st.LastSeq))
			return
		}

		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)

		if resync || from < st.SnapshotSeq {
			var err error
			if from, err = streamBootstrap(w, src); err != nil {
				return
			}
			flusher.Flush()
		}

		ctx := r.Context()
		lastCheckpoint := time.Time{} // force one immediately: it tells the follower the head
		for ctx.Err() == nil {
			recs, err := src.Store.ReadSince(from, opts.BatchRecords)
			if err != nil {
				// A concurrent compaction moved the horizon past this
				// stream's position (TruncatedHistoryError), or the store
				// closed. End the stream; the reconnecting follower will be
				// offered a bootstrap.
				return
			}
			for _, rec := range recs {
				if err := writeFrame(w, frameOp, rec.Payload); err != nil {
					return
				}
				from = rec.Seq
			}
			if len(recs) > 0 || time.Since(lastCheckpoint) >= opts.CheckpointEvery {
				if err := writeFrame(w, frameCheckpoint, u64Body(src.Store.Stats().LastSeq)); err != nil {
					return
				}
				flusher.Flush()
				lastCheckpoint = time.Now()
			}
			if len(recs) > 0 {
				continue // not caught up; read again immediately
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(opts.Poll):
			}
		}
	})
}

// streamBootstrap exports the catalog at an exact seq and streams it
// as a reset frame followed by one graph frame per entry. It returns
// the seq the tail should continue from.
func streamBootstrap(w http.ResponseWriter, src *Source) (uint64, error) {
	var base uint64
	state := src.Export(func() { base = src.Store.Stats().LastSeq })
	names := make([]string, 0, len(state))
	for n := range state {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := writeFrame(w, frameReset, resetBody(base, len(names))); err != nil {
		return 0, err
	}
	for _, name := range names {
		if err := writeFrame(w, frameGraph, store.EncodeNamedGraph(name, state[name])); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// httpError writes the same {"error": ...} JSON shape the rest of the
// HTTP API uses.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
