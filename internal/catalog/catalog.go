// Package catalog is the serving layer's registry of data graphs. A
// production deployment matches many patterns against a fixed fleet of
// data graphs, so the dominant preprocessing cost — the transitive
// closure of G2 (the matrix H2 of Fig. 3, which every p-hom algorithm
// consults) — must be computed once per graph and shared across all
// concurrent requests, not once per core.Instance as the library
// defaults to.
//
// The Catalog keeps every registered graph resident but bounds the
// resident reachability indexes with an LRU policy — by count
// (MaxClosures) and optionally by total bytes (WithMaxBytes) — because
// a closure can be quadratically larger than its graph. Closure builds
// are single-flight: concurrent requests for the same (graph, path
// limit) pair wait for one build instead of racing to duplicate it.
// Hit/miss/eviction counters expose cache effectiveness to /v1/stats
// and the benchmarks.
//
// Each cached closure also carries a matcher-facing reachability index
// (closure.Index) in one of two tiers, selected automatically by
// projected size: small graphs get dense per-node closure rows (fast
// word-level trims), large graphs get the candidate-sparse
// component-probe tier whose footprint is O(n + k²) in the number of
// SCC-condensation components k rather than O(n²) — the representation
// that lets the catalog register ≥100k-node data graphs at all.
//
// Every registered graph also owns a candidate index (simmatrix's
// content postings), read from the same registry entry as the graph
// itself, so the content-similarity matrix a request builds can list its
// admissible pairs instead of scoring all of V1 × V2. It belongs to the
// graph, not to a cached closure: it is never evicted and is carried
// forward across patches.
package catalog

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphmatch/internal/closure"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
	"graphmatch/internal/trace"
)

// Errors distinguished by the HTTP layer.
var (
	// ErrNotFound reports an unknown graph name.
	ErrNotFound = errors.New("catalog: graph not found")
	// ErrDuplicate reports a Register against a name already taken.
	ErrDuplicate = errors.New("catalog: graph already registered")
	// ErrBadPatch reports an Apply whose patch failed validation (empty,
	// out-of-range node, absent edge) — the client's fault, nothing
	// committed.
	ErrBadPatch = errors.New("catalog: invalid patch")
)

// DefaultMaxClosures bounds resident closures when no explicit capacity
// is given.
const DefaultMaxClosures = 64

// Option customises a Catalog beyond the resident-closure count bound.
type Option func(*Catalog)

// WithMaxBytes bounds the total resident bytes of cached reachability
// indexes (closures plus their tier indexes). When an insertion or a
// build pushes the resident total past the budget, least-recently-used
// entries are evicted until it fits again — except the entry just
// touched, so a single closure larger than the budget still serves its
// requests (it just evicts everything else and is dropped on the next
// miss). Non-positive means unbounded (the default).
func WithMaxBytes(n int64) Option {
	return func(c *Catalog) { c.maxBytes = n }
}

// WithTierPolicy fixes the reachability-index tier instead of the
// default auto selection by projected size.
func WithTierPolicy(p closure.TierPolicy) Option {
	return func(c *Catalog) { c.tierPolicy = p }
}

// WithDenseMaxBytes overrides the auto-tier threshold: graphs whose
// projected dense rows exceed n bytes get the candidate-sparse tier.
// Non-positive keeps closure.DefaultDenseMaxBytes.
func WithDenseMaxBytes(n int) Option {
	return func(c *Catalog) { c.denseMaxBytes = n }
}

// WithDeltaBudget tunes incremental closure maintenance on Apply: the
// cached closure is patched in place while the update's work estimate
// stays under the budget, and rebuilt from scratch beyond it. Zero (the
// default) derives the budget from the graph size — roughly half the
// estimated rebuild cost; negative disables incremental maintenance
// entirely, forcing the invalidate+rebuild path (the rebuild baseline
// cmd/benchpatch measures against).
func WithDeltaBudget(n int) Option {
	return func(c *Catalog) { c.deltaBudget = n }
}

// Stats is a point-in-time snapshot of catalog effectiveness.
type Stats struct {
	// Graphs is the number of registered data graphs.
	Graphs int `json:"graphs"`
	// ResidentClosures counts reachability indexes currently cached
	// (including ones still being built).
	ResidentClosures int `json:"resident_closures"`
	// ResidentIndexes counts cached closures whose matcher-facing
	// reachability index has been built; indexes are built lazily, on
	// the first request that runs an index-consuming algorithm.
	ResidentIndexes int `json:"resident_indexes"`
	// ResidentDense and ResidentSparse break ResidentIndexes down by
	// tier (dense closure rows vs candidate-sparse component probes).
	ResidentDense  int `json:"resident_dense"`
	ResidentSparse int `json:"resident_sparse"`
	// DenseIndexBytes and SparseIndexBytes approximate the heap held by
	// resident indexes of each tier, beyond the closures they derive
	// from.
	DenseIndexBytes  int64 `json:"dense_index_bytes"`
	SparseIndexBytes int64 `json:"sparse_index_bytes"`
	// ResidentBytes approximates the heap held by resident reachability
	// closures and their indexes — the quantity the LRU bounds protect.
	ResidentBytes int64 `json:"resident_bytes"`
	// MaxClosures is the LRU capacity by entry count.
	MaxClosures int `json:"max_closures"`
	// MaxBytes is the LRU capacity by resident bytes; 0 = unbounded.
	MaxBytes int64 `json:"max_bytes"`
	// TierPolicy is the index tier selection in force (auto, dense or
	// sparse).
	TierPolicy string `json:"tier_policy"`
	// Hits counts Reach calls served from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts Reach calls that had to build a closure.
	Misses uint64 `json:"misses"`
	// Evictions counts closures dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// BuildTime is the cumulative wall time spent building closures
	// and closure rows.
	BuildTime time.Duration `json:"build_ns"`
	// PatchesIncremental counts Apply commits whose cached closure was
	// patched in place; PatchesRebuild counts the ones that fell back to
	// invalidate+rebuild (no cached closure, SCC reshape, or delta cone
	// over budget).
	PatchesIncremental uint64 `json:"patches_incremental"`
	PatchesRebuild     uint64 `json:"patches_rebuild"`
	// PatchIndexRebuilds counts Apply commits that built the
	// matcher-facing index afresh (closure.BuildIndex) instead of
	// patching it: the graph outgrew the dense budget, or the row patch
	// declined. Zero on a healthy server.
	PatchIndexRebuilds uint64 `json:"patch_index_rebuilds"`
	// CandidateIndexBytes approximates the heap held by the registered
	// graphs' candidate indexes (content postings, present once a
	// content-similarity request has built them). Outside the LRU bounds
	// — an index lives as long as its graph.
	CandidateIndexBytes int64 `json:"candidate_index_bytes"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// closureKey identifies one cached index: the same graph under
// different path-limit bounds yields different (incomparable) indexes.
type closureKey struct {
	name      string
	pathLimit int
}

// entry is one cache slot. ready is closed once reach is final, so
// lookups can wait for an in-flight build without holding the catalog
// lock. Builds cannot fail (closure.ComputeBounded is total), so the
// slot carries no error. The matcher-facing reachability index rides
// in the same slot — built lazily (single-flight via idxOnce) because
// only the approximation algorithms consume it — so the LRU bounds
// account for closure and index together and eviction drops both.
// bytes and idxBytes are maintained under the catalog lock for the
// ResidentBytes stat.
type entry struct {
	key   closureKey
	elem  *list.Element
	ready chan struct{}
	reach *closure.Reach

	idxOnce sync.Once
	idx     closure.Index

	bytes    int64
	idxBytes int64
	idxTier  closure.Tier
	// idxCounted records that this entry contributed to the per-tier
	// resident counters (idxBytes alone cannot: a tiny graph's index
	// can round to zero bytes while still being resident).
	idxCounted bool
}

// graphEntry is one registered data graph plus its candidate index: the
// content postings, built on the first content-similarity request
// (single-flight) because shingling every node is expensive and label
// traffic never needs it. An entry is immutable apart from that lazy
// build; a patch makes a new entry (patched).
type graphEntry struct {
	g *graph.Graph

	contentOnce sync.Once
	content     atomic.Pointer[simmatrix.ContentIndex]
	// counted is what this entry has added to Catalog.candidateBytes;
	// guarded by the catalog lock.
	counted int64
}

// patched returns the entry of ng, the graph p turns ge.g into. Edges
// are no part of the candidate index, so a patch that sets no content
// and adds no node carries a built index forward by pointer; after any
// other patch the successor builds its own on the next content request,
// as a freshly registered graph does. Never blocks on a build in flight
// on ge.
func (ge *graphEntry) patched(ng *graph.Graph, p *graph.Patch) *graphEntry {
	ne := &graphEntry{g: ng}
	if len(p.SetContent) == 0 && len(p.AddNodes) == 0 {
		ne.content.Store(ge.content.Load())
	}
	return ne
}

// contentIndex returns ge's content postings, building them on first
// use; name is what ge was looked up under.
func (c *Catalog) contentIndex(name string, ge *graphEntry) *simmatrix.ContentIndex {
	if ix := ge.content.Load(); ix != nil {
		return ix
	}
	ge.contentOnce.Do(func() {
		ix := simmatrix.NewContentIndex(ge.g, 0)
		ge.content.Store(ix)
		c.mu.Lock()
		if c.graphs[name] == ge { // else replaced meanwhile: garbage once its readers finish
			ge.counted = ix.Bytes()
			c.candidateBytes += ge.counted
		}
		c.mu.Unlock()
	})
	return ge.content.Load()
}

// setEntryLocked makes ge the registry entry of name (nil removes the
// name), keeping candidateBytes the sum over the registered entries.
// Callers hold c.mu.
func (c *Catalog) setEntryLocked(name string, ge *graphEntry) {
	if old := c.graphs[name]; old != nil {
		c.candidateBytes -= old.counted
		old.counted = 0
	}
	if ge == nil {
		delete(c.graphs, name)
		return
	}
	if ix := ge.content.Load(); ix != nil { // carried forward by patched
		ge.counted = ix.Bytes()
		c.candidateBytes += ge.counted
	}
	c.graphs[name] = ge
}

// Mutation describes one committed registry change for MutationHook
// observers.
type Mutation struct {
	// Removed marks a Remove; g is the graph that was registered.
	Removed bool
	// Patch and Prev are set on Apply and carry the changed-content
	// delta: g was produced by applying Patch to Prev. Observers that
	// maintain per-node derived state (the search index's shingle
	// postings and degree signatures) use them to update only what
	// changed instead of re-deriving the whole graph. Both are nil on
	// Register, Replace and hook-installation replay.
	Patch *graph.Patch
	Prev  *graph.Graph
}

// MutationHook observes registry mutations: it is invoked once per
// successful Register, Remove and Apply (g is the patched replacement
// graph on Apply — a new pointer, which is how observers distinguish an
// in-place update from a replayed Register). Hooks run synchronously
// under the catalog lock so observers see mutations in their true
// order; they must return quickly and must not call back into the
// catalog. Work too heavy for the lock hold is returned as settle,
// which Apply runs once it has released the lock (nil: nothing to do;
// no other notification may return one).
type MutationHook func(name string, g *graph.Graph, m Mutation) (settle func())

// Persister is the catalog's write-ahead durability callback. Each
// method is invoked under the catalog lock, after validation but
// before the in-memory mutation commits: an error vetoes the mutation
// (nothing changes, the caller gets the error), and a nil return means
// the op is durable — the store fsyncs before returning — so every
// acknowledged mutation survives a crash. LogPatch receives the patch,
// not the patched graph: the log stays proportional to the edit, and
// replaying patches against replayed graphs is deterministic.
//
// The persister and the MutationHook split the observer duties: the
// persister runs first (write-ahead, fallible), the hook after commit
// (coherence, infallible). Replay installs neither until boot is done,
// so replayed mutations are not re-logged.
// The context carries the request's trace span (if any) so the
// persister can attribute the durability cost — the WAL append and
// fsync — to the request that caused it and stamp the traceparent
// into the logged op.
type Persister interface {
	LogRegister(ctx context.Context, name string, g *graph.Graph) error
	LogRemove(ctx context.Context, name string) error
	LogPatch(ctx context.Context, name string, p *graph.Patch) error
}

// Catalog is a concurrency-safe registry of named data graphs with a
// bounded, shared closure cache. The zero value is not usable; create
// catalogs with New.
type Catalog struct {
	mu       sync.Mutex
	graphs   map[string]*graphEntry
	closures map[closureKey]*entry
	lru      *list.List // front = most recently used; values are *entry
	capacity int
	maxBytes int64 // 0 = unbounded

	onMutate MutationHook
	persist  Persister
	patchObs PatchObserver

	tierPolicy    closure.TierPolicy
	denseMaxBytes int
	deltaBudget   int

	hits, misses, evictions uint64
	patchesIncremental      uint64
	patchesRebuild          uint64
	patchIndexRebuilds      uint64
	buildTime               time.Duration
	residentBytes           int64
	residentDense           int
	residentSparse          int
	denseBytes              int64
	sparseBytes             int64
	candidateBytes          int64 // Σ graphEntry.counted over c.graphs
}

// New returns an empty catalog bounding resident closures at
// maxClosures (DefaultMaxClosures when non-positive), customised by
// opts.
func New(maxClosures int, opts ...Option) *Catalog {
	if maxClosures <= 0 {
		maxClosures = DefaultMaxClosures
	}
	c := &Catalog{
		graphs:     make(map[string]*graphEntry),
		closures:   make(map[closureKey]*entry),
		lru:        list.New(),
		capacity:   maxClosures,
		tierPolicy: closure.PolicyAuto,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.tierPolicy == "" {
		c.tierPolicy = closure.PolicyAuto
	}
	if c.denseMaxBytes <= 0 {
		c.denseMaxBytes = closure.DefaultDenseMaxBytes
	}
	return c
}

// Register adds a data graph under name and eagerly builds its
// unbounded closure so the first match request is already a cache hit.
// The catalog takes ownership: the graph must not be mutated afterwards
// (it is normalised here so concurrent readers never race on lazy
// adjacency sorting). Registering an existing name fails with
// ErrDuplicate.
func (c *Catalog) Register(name string, g *graph.Graph) error {
	return c.RegisterCtx(context.Background(), name, g)
}

// RegisterCtx is Register with a request context for trace
// attribution: the commit is recorded as a catalog.commit span and the
// persister receives ctx for WAL-append spans.
func (c *Catalog) RegisterCtx(ctx context.Context, name string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("catalog: empty graph name")
	}
	if g == nil {
		return fmt.Errorf("catalog: nil graph %q", name)
	}
	sp := trace.SpanFromContext(ctx).Child("catalog.commit")
	sp.SetStr("op", "register")
	sp.SetStr("graph", name)
	defer sp.End()
	g.Finish()
	c.mu.Lock()
	if _, dup := c.graphs[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if c.persist != nil {
		if err := c.persist.LogRegister(ctx, name, g); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.setEntryLocked(name, &graphEntry{g: g})
	if c.onMutate != nil {
		c.onMutate(name, g, Mutation{})
	}
	c.mu.Unlock()
	// The registration is committed (and durable, with a persister); the
	// eager closure build is a warm-up and can only fail if a concurrent
	// Remove already took the name — not a registration failure.
	_, _ = c.Reach(name, 0)
	return nil
}

// SetPersister installs p as the catalog's write-ahead durability
// callback (one at most; nil removes it). Unlike SetMutationHook there
// is no replay: the persister is installed after boot-time recovery
// precisely so the recovered state is not re-logged.
func (c *Catalog) SetPersister(p Persister) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.persist = p
}

// SetMutationHook installs fn as the catalog's mutation observer (one
// hook at most; a later call replaces the previous hook, nil removes
// it). Installation replays every currently registered graph through fn
// in sorted-name order, so a late-attaching observer — the search
// index — starts coherent with the registry and never misses a graph:
// the replay and all future mutations are serialised under the same
// lock. See MutationHook for the constraints fn must obey.
func (c *Catalog) SetMutationHook(fn MutationHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMutate = fn
	if fn == nil {
		return
	}
	names := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, c.graphs[n].g, Mutation{})
	}
}

// SetPatchObserver installs obs as the catalog's per-patch telemetry
// sink (one at most; zero-value fields are skipped). Observations fire
// after each Apply commit, outside the catalog lock.
func (c *Catalog) SetPatchObserver(obs PatchObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.patchObs = obs
}

// PatchObserver receives per-Apply maintenance telemetry for the
// metrics layer: the end-to-end patch latency in seconds and — on
// incremental commits — the delta cone size in components.
type PatchObserver struct {
	Latency  func(seconds float64)
	ConeSize func(comps float64)
}

// Remove drops a graph and every cached closure derived from it.
func (c *Catalog) Remove(name string) error {
	return c.RemoveCtx(context.Background(), name)
}

// RemoveCtx is Remove with a request context for trace attribution.
func (c *Catalog) RemoveCtx(ctx context.Context, name string) error {
	sp := trace.SpanFromContext(ctx).Child("catalog.commit")
	sp.SetStr("op", "remove")
	sp.SetStr("graph", name)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	ge, ok := c.graphs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if c.persist != nil {
		if err := c.persist.LogRemove(ctx, name); err != nil {
			return err
		}
	}
	c.setEntryLocked(name, nil)
	if c.onMutate != nil {
		c.onMutate(name, ge.g, Mutation{Removed: true})
	}
	c.dropClosuresLocked(name)
	return nil
}

// Apply patches a registered graph in place: the live-mutation path
// behind PATCH /v1/graphs/{name}. Registered graphs are shared
// immutable objects (concurrent matchers and cached closures read
// them), so the patch is applied copy-on-write — the patched clone is
// swapped into the registry and the mutation hook fires with the new
// graph and the patch delta so the search index updates only what
// changed — all under one lock hold, so observers never see a
// half-applied edit.
//
// The cached full closure is maintained incrementally whenever it can
// be: the delta update (and, for the dense tier, the row patch) runs
// outside the lock against the captured closure, and the commit swaps
// the patched closure in alongside the graph. When the update cannot be
// incremental — no cached closure, the patch reshapes the SCC
// condensation, or the delta cone blows the cost budget — the closure
// is invalidated and rebuilt eagerly, like Register's. A built index
// follows its closure: patched with it, rebuilt here only when the
// graph has outgrown the dense budget, left to the next request when
// the closure itself was rebuilt. In-flight requests that resolved the
// old (graph, closure) pair finish against that consistent pair.
func (c *Catalog) Apply(name string, p *graph.Patch) (*graph.Graph, error) {
	return c.ApplyCtx(context.Background(), name, p)
}

// ApplyCtx is Apply with a request context for trace attribution: the
// whole commit is recorded as a catalog.commit span (with the
// incremental-vs-rebuild outcome, the delta cone size and what happened
// to the index — index=patched|rebuilt|lazy, index_reason when rebuilt —
// as attributes) and the persister receives ctx for WAL-append spans.
func (c *Catalog) ApplyCtx(ctx context.Context, name string, p *graph.Patch) (*graph.Graph, error) {
	if p == nil || p.Empty() {
		return nil, fmt.Errorf("%w: empty patch for %q", ErrBadPatch, name)
	}
	sp := trace.SpanFromContext(ctx).Child("catalog.commit")
	sp.SetStr("op", "patch")
	sp.SetStr("graph", name)
	defer sp.End()
	start := time.Now()
	// Clone + patch outside the lock: the clone is O(nodes + edges) and
	// the catalog mutex gates every match request's graph resolution —
	// holding it across a 100k-node copy would stall the serving hot
	// path behind each mutation. The commit below re-checks that the
	// entry is still the one the clone derived from and retries against
	// the newer graph otherwise (same optimistic pattern the search
	// index uses for its summaries).
	var ng *graph.Graph
	var incremental bool
	var coneSize int
	var indexed, indexReason string
	var settle func()
	for {
		c.mu.Lock()
		ge, ok := c.graphs[name]
		var oldReach *closure.Reach
		var oldIdx closure.Index
		if ok {
			if e, cached := c.closures[closureKey{name: name, pathLimit: 0}]; cached {
				select {
				case <-e.ready: // only a finished build can be patched
					oldReach = e.reach
					if e.idxCounted {
						oldIdx = e.idx
					}
				default:
				}
			}
		}
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		var err error
		if ng, err = ge.g.ApplyPatch(p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPatch, err)
		}
		ne := ge.patched(ng, p)

		// Incremental closure maintenance, still outside the lock: the
		// delta is computed copy-on-write against the captured closure,
		// so concurrent readers of the old entry are undisturbed and a
		// lost commit race just discards the work.
		var newReach *closure.Reach
		var newIdx closure.Index
		var deltaTime time.Duration
		incremental, coneSize = false, 0
		indexed, indexReason = "lazy", "" // none built yet, or dropped with its closure
		if oldReach != nil && c.deltaBudget >= 0 {
			deltaStart := time.Now()
			if nr, d, ok2 := oldReach.ApplyEdges(ge.g, len(p.AddNodes), p.DelEdges, p.AddEdges, c.deltaBudget); ok2 {
				newReach = nr
				incremental = true
				coneSize = d.ConeSize()
				switch old := oldIdx.(type) {
				case *closure.CompIndex:
					// The sparse tier reads straight through the Reach:
					// rewrapping is O(1), incremental by construction.
					newIdx, indexed = closure.NewCompIndex(newReach), "patched"
				case *closure.Rows:
					if c.tierPolicy == closure.PolicyAuto && closure.ProjectedRowsBytes(newReach) > c.denseMaxBytes {
						indexReason = "outgrew_dense"
					} else if rw, ok3 := closure.UpdateRows(old, oldReach, newReach, d); ok3 {
						newIdx, indexed = rw, "patched"
					} else {
						indexReason = "row_patch_declined"
					}
					if newIdx == nil {
						newIdx, indexed = closure.BuildIndex(newReach, c.tierPolicy, c.denseMaxBytes), "rebuilt"
					}
				}
			}
			deltaTime = time.Since(deltaStart)
		}

		c.mu.Lock()
		if c.graphs[name] != ge {
			c.mu.Unlock()
			continue // lost a race with another mutation of this name
		}
		if c.persist != nil {
			if err := c.persist.LogPatch(ctx, name, p); err != nil {
				c.mu.Unlock()
				return nil, err
			}
		}
		c.setEntryLocked(name, ne)
		if c.onMutate != nil {
			settle = c.onMutate(name, ng, Mutation{Patch: p, Prev: ge.g})
		}
		c.buildTime += deltaTime
		if incremental {
			c.patchesIncremental++
			c.installClosureLocked(name, newReach, newIdx)
		} else {
			c.patchesRebuild++
			c.dropClosuresLocked(name)
		}
		if indexed == "rebuilt" {
			c.patchIndexRebuilds++
		}
		c.mu.Unlock()
		break
	}
	if settle != nil {
		settle()
	}
	if !incremental {
		// Warm the closure eagerly, like Register. The patch is
		// committed (and, with a persister, durable) at this point: a
		// warm-up failure — only possible when a concurrent Remove takes
		// the name, making the warm-up moot — must not be reported as a
		// mutation failure, or a client would retry an already-applied
		// patch.
		_, _ = c.Reach(name, 0)
	}
	c.mu.Lock()
	obs := c.patchObs
	c.mu.Unlock()
	if obs.Latency != nil {
		obs.Latency(time.Since(start).Seconds())
	}
	if obs.ConeSize != nil && incremental {
		obs.ConeSize(float64(coneSize))
	}
	sp.SetBool("incremental", incremental)
	if incremental {
		sp.SetInt("cone_comps", int64(coneSize))
	}
	sp.SetStr("index", indexed)
	if indexReason != "" {
		sp.SetStr("index_reason", indexReason)
	}
	return ng, nil
}

// installClosureLocked replaces every cached closure of name with one
// freshly patched full-closure entry (already built, ready closed) and
// optionally its maintained index, keeping the LRU accounting exact.
// Bounded-path-limit entries are simply dropped — they are rebuilt
// lazily on next use. Callers hold c.mu.
func (c *Catalog) installClosureLocked(name string, r *closure.Reach, idx closure.Index) {
	c.dropClosuresLocked(name)
	key := closureKey{name: name, pathLimit: 0}
	e := &entry{key: key, ready: make(chan struct{}), reach: r}
	close(e.ready)
	e.elem = c.lru.PushFront(e)
	c.closures[key] = e
	e.bytes = int64(r.Bytes())
	c.residentBytes += e.bytes
	if idx != nil {
		e.idxOnce.Do(func() { e.idx = idx })
		ib := int64(idx.Bytes())
		e.idxBytes = ib
		e.idxTier = idx.Tier()
		e.idxCounted = true
		c.residentBytes += ib
		switch e.idxTier {
		case closure.TierSparse:
			c.residentSparse++
			c.sparseBytes += ib
		default:
			c.residentDense++
			c.denseBytes += ib
		}
	}
	c.evictLocked()
	c.evictBytesLocked(e)
}

// Replace swaps the entire registry for state in one lock hold: every
// current graph is removed (the mutation hook fires so the search
// index drops it), every graph in state is registered (the hook fires
// again), and no observer ever sees a mixture of old and new. It is
// the follower's bootstrap path — the primary shipped a full catalog
// at an exact seq — so, unlike Register/Remove, it never consults the
// persister: the caller owns durability and has already landed the
// store on a snapshot of exactly this state. Like Register, closures
// of the new graphs are warmed eagerly after the swap.
func (c *Catalog) Replace(state map[string]*graph.Graph) error {
	names := make([]string, 0, len(state))
	for name, g := range state {
		if name == "" {
			return fmt.Errorf("catalog: empty graph name")
		}
		if g == nil {
			return fmt.Errorf("catalog: nil graph %q", name)
		}
		g.Finish()
		names = append(names, name)
	}
	sort.Strings(names)
	c.mu.Lock()
	old := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		old = append(old, n)
	}
	sort.Strings(old)
	for _, n := range old {
		ge := c.graphs[n]
		c.setEntryLocked(n, nil)
		if c.onMutate != nil {
			c.onMutate(n, ge.g, Mutation{Removed: true})
		}
		c.dropClosuresLocked(n)
	}
	for _, n := range names {
		c.setEntryLocked(n, &graphEntry{g: state[n]})
		if c.onMutate != nil {
			c.onMutate(n, state[n], Mutation{})
		}
	}
	c.mu.Unlock()
	// Warm-ups, like Register's: the swap is committed; a warm-up can
	// only fail if a concurrent mutation already took the name.
	for _, n := range names {
		_, _ = c.Reach(n, 0)
	}
	return nil
}

// dropClosuresLocked evicts every cached closure derived from name.
// Callers hold c.mu.
func (c *Catalog) dropClosuresLocked(name string) {
	for k, e := range c.closures {
		if k.name == name {
			c.lru.Remove(e.elem)
			c.dropAccountingLocked(e)
			delete(c.closures, k)
		}
	}
}

// Export returns a point-in-time copy of the registry (name → graph;
// the graphs are the shared immutable objects, not clones). When
// prepare is non-nil it runs under the same lock hold, before the
// copy: the snapshot path passes the store's WAL rotation here, so the
// exported state corresponds exactly to the rotation's sequence number
// — no mutation (and therefore no WAL append, since the persister also
// runs under this lock) can interleave.
func (c *Catalog) Export(prepare func()) map[string]*graph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prepare != nil {
		prepare()
	}
	out := make(map[string]*graph.Graph, len(c.graphs))
	for n, ge := range c.graphs {
		out[n] = ge.g
	}
	return out
}

// dropAccountingLocked retires an entry's contribution to the resident
// memory stats. Callers hold c.mu.
func (c *Catalog) dropAccountingLocked(e *entry) {
	c.residentBytes -= e.bytes + e.idxBytes
	if e.idxCounted {
		switch e.idxTier {
		case closure.TierSparse:
			c.residentSparse--
			c.sparseBytes -= e.idxBytes
		default:
			c.residentDense--
			c.denseBytes -= e.idxBytes
		}
	}
	e.bytes, e.idxBytes, e.idxCounted = 0, 0, false
}

// lookup returns the registry entry of name.
func (c *Catalog) lookup(name string) (*graphEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ge, ok := c.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ge, nil
}

// Get returns the registered graph.
func (c *Catalog) Get(name string) (*graph.Graph, error) {
	ge, err := c.lookup(name)
	if err != nil {
		return nil, err
	}
	return ge.g, nil
}

// ContentSets returns the named graph's content postings (built once, on
// first use, with the default shingle window) together with the graph
// they index, both from one registry read.
func (c *Catalog) ContentSets(name string) (*graph.Graph, *simmatrix.ContentIndex, error) {
	ge, err := c.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return ge.g, c.contentIndex(name, ge), nil
}

// GraphInfo is a point-in-time description of one registered graph and
// the reachability state the catalog holds for it, as served by the
// GET /v1/graphs/{name} detail endpoint.
type GraphInfo struct {
	// Name is the registered name.
	Name string `json:"name"`
	// Nodes and Edges describe the graph itself.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// ResidentClosures counts cached closure entries derived from this
	// graph (one per requested path limit).
	ResidentClosures int `json:"resident_closures"`
	// ClosureBytes sums the resident closure bytes across those entries.
	ClosureBytes int64 `json:"closure_bytes"`
	// IndexTier is the tier of the full (path-limit 0) closure's
	// matcher-facing index, empty while none is built.
	IndexTier string `json:"index_tier,omitempty"`
	// IndexBytes sums the resident index bytes across the entries.
	IndexBytes int64 `json:"index_bytes"`
	// CandidateIndexBytes approximates the graph's candidate index
	// (content postings; 0 until a content-similarity request builds
	// them).
	CandidateIndexBytes int64 `json:"candidate_index_bytes"`
}

// Describe reports the catalog's view of one registered graph: its
// size plus how much reachability state is currently resident for it
// and in which tier.
func (c *Catalog) Describe(name string) (GraphInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ge, ok := c.graphs[name]
	if !ok {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	info := GraphInfo{
		Name:                name,
		Nodes:               ge.g.NumNodes(),
		Edges:               ge.g.NumEdges(),
		CandidateIndexBytes: ge.counted,
	}
	for k, e := range c.closures {
		if k.name != name {
			continue
		}
		info.ResidentClosures++
		info.ClosureBytes += e.bytes
		info.IndexBytes += e.idxBytes
		if k.pathLimit == 0 && e.idxCounted {
			info.IndexTier = string(e.idxTier)
		}
	}
	return info, nil
}

// Names lists the registered graphs in sorted order.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of registered graphs.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.graphs)
}

// Reach returns the shared reachability index of the named graph under
// the given path limit (0 = the full transitive closure), building and
// caching it on first use. Concurrent callers for the same key share a
// single build.
func (c *Catalog) Reach(name string, pathLimit int) (*closure.Reach, error) {
	_, r, err := c.GetWithReach(name, pathLimit)
	return r, err
}

// GetWithReach resolves the named graph and its shared reachability
// index in one step, so the pair is guaranteed consistent even if the
// name is concurrently removed and re-registered with a different
// graph (separate Get + Reach calls could pair the old graph with the
// new graph's closure). The graph and the cached closure entry are
// resolved under one lock acquisition; a fresh build uses the graph
// pointer captured there, never a re-lookup by name.
func (c *Catalog) GetWithReach(name string, pathLimit int) (*graph.Graph, *closure.Reach, error) {
	ge, e, _, err := c.getEntry(trace.Span{}, name, pathLimit)
	if err != nil {
		return nil, nil, err
	}
	return ge.g, e.reach, nil
}

// Need says how much reachability state a ResolveCtx must come back
// with; the graph and its candidate index always do.
type Need int

const (
	// NeedGraph asks for no closure at all (graph simulation).
	NeedGraph Need = iota
	// NeedReach adds the reachability closure (the exact deciders).
	NeedReach
	// NeedIndex adds the matcher-facing index too (compMaxCard/Sim).
	NeedIndex
)

// Resolved is one consistent read of a registered graph: everything in
// it belongs to the same registry entry, whatever Remove, Register or
// Apply does to the name meanwhile.
type Resolved struct {
	Graph *graph.Graph
	Reach *closure.Reach // nil under NeedGraph
	Index closure.Index  // nil unless NeedIndex

	c    *Catalog
	name string
	ge   *graphEntry
}

// Content returns the graph's content postings, building them on first
// use; concurrent callers share the one build.
func (r Resolved) Content() *simmatrix.ContentIndex { return r.c.contentIndex(r.name, r.ge) }

// ResolveCtx resolves the named graph with its candidate index and as
// much reachability state as need asks for — the closure and the index
// (the representation the compMaxCard / compMaxSim trim consumes, in
// whichever tier the catalog's policy selects for the graph's size) are
// each built once per cached entry, single-flight, and shared by every
// request. Anything beyond NeedGraph records a catalog.resolve span
// (cache hit, tier, build times) under the request's trace.
func (c *Catalog) ResolveCtx(ctx context.Context, name string, pathLimit int, need Need) (Resolved, error) {
	if need == NeedGraph {
		ge, err := c.lookup(name)
		if err != nil {
			return Resolved{}, err
		}
		return Resolved{Graph: ge.g, c: c, name: name, ge: ge}, nil
	}
	sp := trace.SpanFromContext(ctx).Child("catalog.resolve")
	defer sp.End()
	sp.SetStr("graph", name)
	ge, e, hit, err := c.getEntry(sp, name, pathLimit)
	if err != nil {
		sp.SetStr("error", err.Error())
		return Resolved{}, err
	}
	sp.SetBool("closure_cache_hit", hit)
	r := Resolved{Graph: ge.g, Reach: e.reach, c: c, name: name, ge: ge}
	if need == NeedIndex {
		c.ensureIndex(sp, e)
		sp.SetStr("tier", string(e.idx.Tier()))
		r.Index = e.idx
	}
	return r, nil
}

// GetWithIndexCtx is ResolveCtx(NeedIndex) without the candidate index.
func (c *Catalog) GetWithIndexCtx(ctx context.Context, name string, pathLimit int) (*graph.Graph, *closure.Reach, closure.Index, error) {
	r, err := c.ResolveCtx(ctx, name, pathLimit, NeedIndex)
	return r.Graph, r.Reach, r.Index, err
}

// GetWithIndex is GetWithIndexCtx for untraced callers.
func (c *Catalog) GetWithIndex(name string, pathLimit int) (*graph.Graph, *closure.Reach, closure.Index, error) {
	return c.GetWithIndexCtx(context.Background(), name, pathLimit)
}

// ensureIndex performs the single-flight matcher-index build for a
// resolved closure entry. When this call is the one that builds, a
// catalog.index_build child span records the tier-selection outcome
// under the request's resolve span (inert span = untraced caller).
func (c *Catalog) ensureIndex(sp trace.Span, e *entry) {
	e.idxOnce.Do(func() {
		bsp := sp.Child("catalog.index_build")
		start := time.Now()
		e.idx = closure.BuildIndex(e.reach, c.tierPolicy, c.denseMaxBytes)
		built := time.Since(start)
		ib := int64(e.idx.Bytes())
		tier := e.idx.Tier()
		bsp.SetStr("tier", string(tier))
		bsp.SetInt("bytes", ib)
		bsp.End()
		c.mu.Lock()
		c.buildTime += built
		// Account only while the entry is still resident; an entry
		// evicted mid-build keeps serving its direct waiters but no
		// longer counts toward resident memory.
		if c.closures[e.key] == e {
			e.idxBytes = ib
			e.idxTier = tier
			e.idxCounted = true
			c.residentBytes += ib
			switch tier {
			case closure.TierSparse:
				c.residentSparse++
				c.sparseBytes += ib
			default:
				c.residentDense++
				c.denseBytes += ib
			}
			c.evictBytesLocked(e)
		}
		c.mu.Unlock()
	})
}

// getEntry resolves the graph and the cache slot for (name, pathLimit),
// waiting on or performing the single-flight closure build. hit
// reports whether the closure was already cached (possibly still
// building under another request); a build performed here is recorded
// as a catalog.closure_build child of sp when sp is active.
func (c *Catalog) getEntry(sp trace.Span, name string, pathLimit int) (*graphEntry, *entry, bool, error) {
	if pathLimit < 0 {
		pathLimit = 0
	}
	key := closureKey{name: name, pathLimit: pathLimit}

	c.mu.Lock()
	ge, ok := c.graphs[name]
	if !ok {
		c.mu.Unlock()
		return nil, nil, false, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e, ok := c.closures[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return ge, e, true, nil
	}
	c.misses++
	e := &entry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.closures[key] = e
	c.evictLocked()
	c.mu.Unlock()

	bsp := sp.Child("catalog.closure_build")
	start := time.Now()
	e.reach = closure.ComputeBounded(ge.g, pathLimit)
	built := time.Since(start)
	close(e.ready)
	bsp.SetInt("path_limit", int64(pathLimit))
	bsp.End()

	rb := int64(e.reach.Bytes())
	c.mu.Lock()
	c.buildTime += built
	if c.closures[key] == e { // not evicted while building
		e.bytes = rb
		c.residentBytes += rb
		c.evictBytesLocked(e)
	}
	c.mu.Unlock()
	return ge, e, false, nil
}

// evictLocked enforces the count LRU bound. In-flight builds may be
// evicted — their waiters keep a direct pointer to the entry and are
// unaffected; the closure simply is not retained once they are done.
func (c *Catalog) evictLocked() {
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		c.lru.Remove(back)
		c.dropAccountingLocked(victim)
		delete(c.closures, victim.key)
		c.evictions++
	}
}

// evictBytesLocked enforces the byte LRU bound after an accounting
// update. keep — the entry whose build just landed — is never the
// victim: evicting the closure a request is actively consuming would
// thrash (rebuild, re-evict, repeat) whenever one graph alone exceeds
// the budget, so a single oversized entry instead empties the rest of
// the cache and is dropped on the next miss. keep is merely skipped,
// not a stop condition — it can sit at the LRU back when a concurrent
// hit promoted another entry mid-build, and the budget must still win
// against the entries in front of it. Callers hold c.mu.
func (c *Catalog) evictBytesLocked(keep *entry) {
	if c.maxBytes <= 0 {
		return
	}
	for c.residentBytes > c.maxBytes {
		el := c.lru.Back()
		if el != nil && el.Value.(*entry) == keep {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		victim := el.Value.(*entry)
		c.lru.Remove(el)
		c.dropAccountingLocked(victim)
		delete(c.closures, victim.key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Graphs:              len(c.graphs),
		ResidentClosures:    c.lru.Len(),
		ResidentIndexes:     c.residentDense + c.residentSparse,
		ResidentDense:       c.residentDense,
		ResidentSparse:      c.residentSparse,
		DenseIndexBytes:     c.denseBytes,
		SparseIndexBytes:    c.sparseBytes,
		ResidentBytes:       c.residentBytes,
		MaxClosures:         c.capacity,
		MaxBytes:            c.maxBytes,
		TierPolicy:          string(c.tierPolicy),
		Hits:                c.hits,
		Misses:              c.misses,
		Evictions:           c.evictions,
		BuildTime:           c.buildTime,
		PatchesIncremental:  c.patchesIncremental,
		PatchesRebuild:      c.patchesRebuild,
		PatchIndexRebuilds:  c.patchIndexRebuilds,
		CandidateIndexBytes: c.candidateBytes,
	}
}
