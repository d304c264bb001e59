package engine

// TestFollowerReParentsReplicatedTraces pins trace propagation across
// the replication boundary: a traced mutation on the primary ships its
// traceparent inside the WAL record, and the follower's apply runs
// under the SAME trace id, re-parented under the primary's span — so
// one id fetched on either node tells the whole cross-node story.

import (
	"context"
	"testing"
	"time"

	"graphmatch/internal/trace"
)

func TestFollowerReParentsReplicatedTraces(t *testing.T) {
	p := startPrimary(t, t.TempDir(), "")
	defer p.shutdown()

	sp := p.eng.Tracer().StartTrace(trace.DeriveTraceID("rid-repl-9"), "POST /v1/graphs", "rid-repl-9")
	ctx := trace.ContextWithSpan(context.Background(), sp)
	if err := p.eng.Register(ctx, "traced", randomGraph(40, 3, 7)); err != nil {
		t.Fatal(err)
	}
	id := sp.TraceID().String()
	sp.End()

	f := openFollower(t, t.TempDir(), p.url(), nil)
	defer f.Close()
	waitSynced(t, f, p, 10*time.Second)

	// The apply's span tree seals just after LastApplied advances, so
	// give the recorder a short poll window.
	var td trace.TraceData
	deadline := time.Now().Add(3 * time.Second)
	for {
		var ok bool
		if td, ok = f.Tracer().Get(id); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never recorded trace %s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if got := td.ID.String(); got != id {
		t.Errorf("follower trace id %s, want the primary's %s", got, id)
	}
	if !td.Remote {
		t.Error("replicated apply trace not marked remote")
	}
	if td.Parent == 0 {
		t.Error("follower trace lost the primary's parent span id")
	}
	if len(td.Spans) == 0 {
		t.Fatal("follower trace has no spans")
	}
	if td.Spans[0].Name != "repl.apply" {
		t.Errorf("follower root span %q, want repl.apply", td.Spans[0].Name)
	}
	sawAppend := false
	for _, s := range td.Spans {
		if s.Name == "store.append" {
			sawAppend = true
		}
	}
	if !sawAppend {
		t.Error("repl.apply trace lacks the follower's store.append child span")
	}
}
