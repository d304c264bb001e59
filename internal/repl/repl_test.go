package repl

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"graphmatch/internal/graph"
	"graphmatch/internal/store"
)

func testGraph(seed int) *graph.Graph {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 3 + rng.Intn(5)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeFull(graph.Node{
			Label:   fmt.Sprintf("L%d", rng.Intn(4)),
			Weight:  1,
			Content: fmt.Sprintf("node %d of graph %d", i, seed),
		})
	}
	for i := 0; i < n*2; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finish()
	return g
}

func TestBackoffSchedule(t *testing.T) {
	b := newBackoff(100*time.Millisecond, time.Second)
	b.jitter = func() float64 { return 1 } // deterministic
	want := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for i, w := range want {
		if got := b.next(); got != w*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.reset()
	if got := b.next(); got != 100*time.Millisecond {
		t.Fatalf("after reset: %v, want 100ms", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := newBackoff(100*time.Millisecond, time.Second)
	for i := 0; i < 100; i++ {
		b.reset()
		d := b.next()
		if d < 50*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("jittered first delay %v outside [50ms, 150ms)", d)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	op := store.Op{Seq: 7, Kind: store.OpRegister, Name: "g", Graph: testGraph(1)}
	payload, err := store.EncodeOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameOp, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameCheckpoint, u64Body(42)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameReset, resetBody(9, 3)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameGraph, store.EncodeNamedGraph("g", op.Graph)); err != nil {
		t.Fatal(err)
	}

	kind, body, err := readFrame(&buf)
	if err != nil || kind != frameOp {
		t.Fatalf("frame 1: kind %d err %v", kind, err)
	}
	got, err := store.DecodeOp(body)
	if err != nil || got.Seq != 7 || got.Name != "g" {
		t.Fatalf("op round trip: %+v err %v", got, err)
	}
	kind, body, err = readFrame(&buf)
	if err != nil || kind != frameCheckpoint {
		t.Fatalf("frame 2: kind %d err %v", kind, err)
	}
	if seq, err := parseU64(body); err != nil || seq != 42 {
		t.Fatalf("checkpoint round trip: %d err %v", seq, err)
	}
	kind, body, err = readFrame(&buf)
	if err != nil || kind != frameReset {
		t.Fatalf("frame 3: kind %d err %v", kind, err)
	}
	if base, count, err := parseReset(body); err != nil || base != 9 || count != 3 {
		t.Fatalf("reset round trip: base %d count %d err %v", base, count, err)
	}
	kind, body, err = readFrame(&buf)
	if err != nil || kind != frameGraph {
		t.Fatalf("frame 4: kind %d err %v", kind, err)
	}
	if name, g, err := store.DecodeNamedGraph(body); err != nil || name != "g" || g.NumNodes() != op.Graph.NumNodes() {
		t.Fatalf("graph round trip: %q err %v", name, err)
	}
}

// memCatalog stands in for the engine's catalog on both sides of the
// unit tests: a locked name→graph map whose mutations append to the
// store under the same lock, mirroring the persister's ordering
// contract.
type memCatalog struct {
	mu     sync.Mutex
	st     *store.Store
	graphs map[string]*graph.Graph
}

func newMemCatalog(st *store.Store) *memCatalog {
	return &memCatalog{st: st, graphs: make(map[string]*graph.Graph)}
}

// mutate logs the op to the WAL (primary side) and applies it.
func (m *memCatalog) mutate(t *testing.T, op store.Op) uint64 {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	seq, err := m.st.Append(op)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.applyLocked(op); err != nil {
		t.Fatal(err)
	}
	return seq
}

// apply is the follower-side Config.Apply callback: persist the op to
// the local WAL at the primary's seq, then commit it to the map, both
// under one lock hold (the engine does the same under its snapshot
// mutex). A map-level rejection wraps ErrStateMismatch so the
// follower resyncs.
func (m *memCatalog) apply(op store.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.st.AppendAt(op); err != nil {
		return err
	}
	if err := m.applyLocked(op); err != nil {
		return fmt.Errorf("%w: %v", ErrStateMismatch, err)
	}
	return nil
}

func (m *memCatalog) applyLocked(op store.Op) error {
	switch op.Kind {
	case store.OpRegister:
		if _, dup := m.graphs[op.Name]; dup {
			return fmt.Errorf("duplicate %q", op.Name)
		}
		m.graphs[op.Name] = op.Graph
	case store.OpRemove:
		if _, ok := m.graphs[op.Name]; !ok {
			return fmt.Errorf("unknown %q", op.Name)
		}
		delete(m.graphs, op.Name)
	case store.OpPatch:
		g, ok := m.graphs[op.Name]
		if !ok {
			return fmt.Errorf("unknown %q", op.Name)
		}
		ng, err := g.ApplyPatch(op.Patch)
		if err != nil {
			return err
		}
		m.graphs[op.Name] = ng
	}
	return nil
}

// reset is the follower-side bootstrap callback.
func (m *memCatalog) reset(state map[string]*graph.Graph, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.st.ReplaceWithSnapshot(state, seq); err != nil {
		return err
	}
	m.graphs = make(map[string]*graph.Graph, len(state))
	for n, g := range state {
		m.graphs[n] = g
	}
	return nil
}

func (m *memCatalog) export(prepare func()) map[string]*graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	prepare()
	out := make(map[string]*graph.Graph, len(m.graphs))
	for n, g := range m.graphs {
		out[n] = g
	}
	return out
}

// contentSets summarises a catalog for equality checks: name → node
// count + edge count + first node content.
func (m *memCatalog) summary() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.graphs))
	for n, g := range m.graphs {
		c := ""
		if g.NumNodes() > 0 {
			c = g.Node(0).Content
		}
		out[n] = fmt.Sprintf("%d/%d/%s", g.NumNodes(), g.NumEdges(), c)
	}
	return out
}

// primary bundles one primary side.
type primary struct {
	st  *store.Store
	cat *memCatalog
	srv *httptest.Server
}

func newPrimary(t *testing.T, opts HandlerOptions) *primary {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cat := newMemCatalog(st)
	mux := http.NewServeMux()
	mux.Handle("GET /v1/replicate/since/{seq}", NewHandler(&Source{Store: st, Export: cat.export}, opts))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &primary{st: st, cat: cat, srv: srv}
}

// newFollower builds a follower over a fresh store and memCatalog.
func newFollower(t *testing.T, primaryURL string, client *http.Client) (*Follower, *memCatalog) {
	t.Helper()
	f, cat, _ := reopenFollower(t, primaryURL, client, t.TempDir())
	return f, cat
}

func reopenFollower(t *testing.T, primaryURL string, client *http.Client, dir string) (*Follower, *memCatalog, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cat := newMemCatalog(st)
	// A restart replays the local WAL, like engine.Open does.
	state, _, err := st.FoldState()
	if err != nil {
		t.Fatal(err)
	}
	for n, g := range state {
		cat.graphs[n] = g
	}
	f, err := New(Config{
		Primary:      primaryURL,
		Client:       client,
		Store:        st,
		Apply:        cat.apply,
		Reset:        cat.reset,
		MinBackoff:   5 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		StallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, cat, st
}

// waitConverged polls until the follower matches the primary's state
// and head seq.
func waitConverged(t *testing.T, p *primary, f *Follower, cat *memCatalog) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Stats()
		if st.LastApplied == p.st.Stats().LastSeq && reflect.DeepEqual(p.cat.summary(), cat.summary()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never converged: follower %+v primary seq %d\nprimary %v\nfollower %v",
		f.Stats(), p.st.Stats().LastSeq, p.cat.summary(), cat.summary())
}

func fastOpts() HandlerOptions {
	return HandlerOptions{Poll: 2 * time.Millisecond, CheckpointEvery: 20 * time.Millisecond, BatchRecords: 16}
}

func TestReplicationEndToEnd(t *testing.T) {
	p := newPrimary(t, fastOpts())
	for i := 0; i < 5; i++ {
		p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: fmt.Sprintf("g%d", i), Graph: testGraph(i)})
	}
	f, cat := newFollower(t, p.srv.URL, nil)
	f.Start()
	defer f.Stop()
	waitConverged(t, p, f, cat)

	// Live tail: mutations arrive while connected.
	p.cat.mutate(t, store.Op{Kind: store.OpRemove, Name: "g0"})
	p.cat.mutate(t, store.Op{Kind: store.OpPatch, Name: "g1", Patch: &graph.Patch{
		SetContent: []graph.ContentUpdate{{Node: 0, Content: "patched"}},
	}})
	waitConverged(t, p, f, cat)

	st := f.Stats()
	if !st.SyncedOnce || st.Diverged {
		t.Fatalf("converged follower stats: %+v", st)
	}
	if st.LagSeq != 0 {
		t.Fatalf("converged follower lag %d", st.LagSeq)
	}
}

func TestFollowerRestartResumesFromLocalTail(t *testing.T) {
	p := newPrimary(t, fastOpts())
	for i := 0; i < 4; i++ {
		p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: fmt.Sprintf("g%d", i), Graph: testGraph(i)})
	}
	dir := t.TempDir()
	f1, cat1, st1 := reopenFollower(t, p.srv.URL, nil, dir)
	f1.Start()
	waitConverged(t, p, f1, cat1)
	f1.Stop()
	st1.Close()

	// Primary advances while the follower is down.
	p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: "late", Graph: testGraph(99)})

	f2, cat2, _ := reopenFollower(t, p.srv.URL, nil, dir)
	if got := f2.Stats().LastApplied; got != 4 {
		t.Fatalf("restarted follower resumes at %d, want the local durable tail 4", got)
	}
	f2.Start()
	defer f2.Stop()
	waitConverged(t, p, f2, cat2)
	if f2.Stats().Resyncs != 0 {
		t.Fatalf("resume from local tail should not bootstrap, got %d resyncs", f2.Stats().Resyncs)
	}
}

// TestBootstrapBehindSnapshotHorizon: a follower whose position
// precedes the primary's compacted history gets a full bootstrap.
func TestBootstrapBehindSnapshotHorizon(t *testing.T) {
	p := newPrimary(t, fastOpts())
	state := make(map[string]*graph.Graph)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("g%d", i)
		g := testGraph(i)
		p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: name, Graph: g})
		state[name] = g
	}
	lastSeq, sealed, err := p.st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.st.WriteSnapshot(state, lastSeq, sealed); err != nil {
		t.Fatal(err)
	}
	p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: "post", Graph: testGraph(50)})

	f, cat := newFollower(t, p.srv.URL, nil)
	f.Start()
	defer f.Stop()
	waitConverged(t, p, f, cat)
	if st := f.Stats(); st.Resyncs != 1 {
		t.Fatalf("bootstrap count = %d, want 1 (stats %+v)", st.Resyncs, st)
	}
}

// TestDivergedFollowerResyncs: a follower claiming a seq the primary
// never reached gets 409, marks itself diverged, and self-heals with
// an explicit resync.
func TestDivergedFollowerResyncs(t *testing.T) {
	p := newPrimary(t, fastOpts())
	p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: "real", Graph: testGraph(1)})

	dir := t.TempDir()
	phantom, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The follower durably applied ops the primary has no memory of.
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := phantom.AppendAt(store.Op{Seq: seq, Kind: store.OpRegister, Name: fmt.Sprintf("ph%d", seq), Graph: testGraph(int(seq))}); err != nil {
			t.Fatal(err)
		}
	}
	phantom.Close()

	f, cat, _ := reopenFollower(t, p.srv.URL, nil, dir)
	f.Start()
	defer f.Stop()
	waitConverged(t, p, f, cat)
	st := f.Stats()
	if st.Resyncs < 1 {
		t.Fatalf("diverged follower healed without a resync: %+v", st)
	}
	if st.Diverged {
		t.Fatalf("resynced follower still marked diverged: %+v", st)
	}
}

// TestFaultInjection runs the follower through every transport fault
// while the primary keeps mutating, and requires convergence.
func TestFaultInjection(t *testing.T) {
	p := newPrimary(t, fastOpts())
	for i := 0; i < 6; i++ {
		p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: fmt.Sprintf("seed%d", i), Graph: testGraph(i)})
	}

	// A deterministic rotation of faults for the first connections,
	// then a healthy link.
	faults := []Fault{
		{Refuse: true},
		{CutAfter: 40},
		{CorruptAt: 33},
		{StallAfter: 60},
		{CutAfter: 200},
		{CorruptAt: 150},
	}
	ft := &FaultTransport{Plan: func(conn int) Fault {
		if conn < len(faults) {
			return faults[conn]
		}
		return Fault{}
	}}
	f, cat := newFollower(t, p.srv.URL, &http.Client{Transport: ft})
	f.Start()
	defer f.Stop()

	// Mutation storm while the faults fire.
	for i := 0; i < 30; i++ {
		p.cat.mutate(t, store.Op{Kind: store.OpRegister, Name: fmt.Sprintf("storm%d", i), Graph: testGraph(100 + i)})
		time.Sleep(time.Millisecond)
	}
	waitConverged(t, p, f, cat)
	if ft.Connections() <= len(faults) {
		t.Fatalf("converged in %d connections — the faults never fired", ft.Connections())
	}
	if st := f.Stats(); st.Reconnects < uint64(len(faults)) {
		t.Fatalf("reconnects = %d, want ≥ %d", st.Reconnects, len(faults))
	}
}
