package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"graphmatch/internal/trace"
)

// This file serves the flight recorder: GET /debug/traces lists the
// most recent completed traces (newest first, slow-ring survivors
// included) and GET /debug/traces/{id} returns one full span tree,
// looked up by trace id or by the X-Request-ID a response carried.
// Both routes live outside the observe shell — see newShell.

// TraceSummary is one row of GET /debug/traces.
type TraceSummary struct {
	ID         string    `json:"id"`
	Route      string    `json:"route"`
	RequestID  string    `json:"request_id,omitempty"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Spans      int       `json:"spans"`
	Remote     bool      `json:"remote,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	// Dominant is the EXPLAIN stage that consumed the most time, e.g.
	// "core.maxsim" — enough to triage a slow trace from the list view.
	Dominant string `json:"dominant,omitempty"`
}

// TraceListResponse is the body of GET /debug/traces.
type TraceListResponse struct {
	SlowThresholdUS int64          `json:"slow_threshold_us"`
	Completed       uint64         `json:"completed"`
	SlowRetained    uint64         `json:"slow_retained"`
	DroppedSpans    uint64         `json:"dropped_spans"`
	Traces          []TraceSummary `json:"traces"`
}

// TraceSpan is one span of a trace detail, offsets relative to the
// trace start.
type TraceSpan struct {
	ID         uint64         `json:"id"`
	Parent     uint64         `json:"parent"`
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"`
	DurationUS int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// TraceDetailResponse is the body of GET /debug/traces/{id}.
type TraceDetailResponse struct {
	ID         string    `json:"id"`
	Route      string    `json:"route"`
	RequestID  string    `json:"request_id,omitempty"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Remote     bool      `json:"remote,omitempty"`
	// ParentSpan is the remote parent's span id when the trace was
	// re-parented under an incoming traceparent (replication apply, or
	// a request that arrived with one).
	ParentSpan   uint64      `json:"parent_span,omitempty"`
	Slow         bool        `json:"slow,omitempty"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
	Spans        []TraceSpan `json:"spans"`
}

func (sh *Shell) debugTraces(w http.ResponseWriter, r *http.Request) {
	tr := sh.tracer
	if tr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("tracing disabled"))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	st := tr.Stats()
	out := TraceListResponse{
		SlowThresholdUS: tr.SlowThreshold().Microseconds(),
		Completed:       st.Completed,
		SlowRetained:    st.Slow,
		DroppedSpans:    st.DroppedSpans,
		Traces:          []TraceSummary{},
	}
	for _, td := range tr.Snapshot(limit) {
		out.Traces = append(out.Traces, summarize(td, tr.SlowThreshold()))
	}
	WriteJSON(w, http.StatusOK, out)
}

func (sh *Shell) debugTrace(w http.ResponseWriter, r *http.Request) {
	tr := sh.tracer
	if tr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("tracing disabled"))
		return
	}
	key := r.PathValue("id")
	td, ok := tr.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace %q in the flight recorder", key))
		return
	}
	out := TraceDetailResponse{
		ID:           td.ID.String(),
		Route:        td.Name,
		RequestID:    td.RequestID,
		Start:        td.Start,
		DurationUS:   td.Duration.Microseconds(),
		Remote:       td.Remote,
		ParentSpan:   td.Parent,
		Slow:         td.Duration >= tr.SlowThreshold(),
		DroppedSpans: td.Dropped,
		Spans:        make([]TraceSpan, 0, len(td.Spans)),
	}
	for _, sd := range td.Spans {
		ts := TraceSpan{
			ID:         sd.ID,
			Parent:     sd.Parent,
			Name:       sd.Name,
			StartUS:    sd.Start.Microseconds(),
			DurationUS: sd.Duration().Microseconds(),
		}
		if len(sd.Attrs) > 0 {
			ts.Attrs = make(map[string]any, len(sd.Attrs))
			for _, a := range sd.Attrs {
				ts.Attrs[a.Key] = a.Value()
			}
		}
		out.Spans = append(out.Spans, ts)
	}
	WriteJSON(w, http.StatusOK, out)
}

func summarize(td trace.TraceData, slowThreshold time.Duration) TraceSummary {
	return TraceSummary{
		ID:         td.ID.String(),
		Route:      td.Name,
		RequestID:  td.RequestID,
		Start:      td.Start,
		DurationUS: td.Duration.Microseconds(),
		Spans:      len(td.Spans),
		Remote:     td.Remote,
		Slow:       td.Duration >= slowThreshold,
		Dominant:   dominantStage(td),
	}
}

// dominantStage names the longest EXPLAIN stage of a trace, or ""
// when the trace has none (e.g. a plain GET).
func dominantStage(td trace.TraceData) string {
	name, best := "", int64(-1)
	for _, st := range td.Stages() {
		if st.DurationUS > best {
			name, best = st.Name, st.DurationUS
		}
	}
	return name
}
