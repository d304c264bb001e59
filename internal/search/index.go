package search

import (
	"sort"
	"sync"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

// patchDelta is one committed graph patch awaiting incremental folding
// into a record's summary: g is prev with p applied.
type patchDelta struct {
	prev, g *graph.Graph
	p       *graph.Patch
}

// maxPendingDeltas bounds a record's queue of unfolded patch deltas;
// past it the patch path folds the queue itself. Every queued delta
// keeps two graph versions reachable, so the bound is what keeps a
// summarised graph that is patched but never searched from pinning its
// whole history. 64 — see DESIGN.md, "Memory under mutation".
const maxPendingDeltas = 64

// rec is the index's record of one registered graph. The summary is
// built lazily (once, outside the index lock — summarising shingles a
// whole graph, which must not stall registration or concurrent
// searches) and maintained incrementally afterwards: committed patches
// queue as deltas under Index.mu and the next search folds them into
// the refcounted intermediates, re-shingling only changed nodes. Until
// the first search asks for the summary there is nothing to maintain:
// a patch just replaces the graph.
type rec struct {
	name string

	// Guarded by Index.mu: the latest graph, whether patches queue
	// deltas (from the start of the first summary build on), the queue
	// of unfolded deltas, whether the summary build has been published,
	// and whether sum.Hashes live in the postings map.
	g       *graph.Graph
	queue   bool
	pending []patchDelta
	built   bool
	indexed bool

	// buildMu serialises summary builds and delta folds for this
	// record. counts (distinct shingle hash → number of contributing
	// nodes) and degs (raw degree-bucket counts) are touched only by
	// the buildMu holder; sum is written by the buildMu holder and
	// published under Index.mu, where Candidates snapshots it.
	buildMu sync.Mutex
	sum     Summary
	counts  map[uint64]int32
	degs    [HistBuckets]int
}

// Index is the stage-1 candidate index over a catalog's registered
// graphs: an inverted index from content shingle hashes to graphs,
// plus per-graph structural signatures. It is safe for concurrent use
// and stays coherent with the catalog through the mutation hook
// NewIndex installs — Register, Remove and Apply reach the index
// synchronously, in mutation order.
type Index struct {
	mu       sync.Mutex
	recs     map[string]*rec
	postings map[uint64][]*rec
	pending  int // Σ len(rec.pending) over recs
}

// NewIndex builds an index over cat and keeps it coherent by
// installing the catalog's mutation hook (replacing any previous hook;
// the catalog supports one observer, and the serving engine creates
// exactly one index per catalog). Graphs already registered are
// replayed into the index during installation, so attaching to a
// populated catalog is equivalent to having observed every Register.
func NewIndex(cat *catalog.Catalog) *Index {
	ix := &Index{
		recs:     make(map[string]*rec),
		postings: make(map[uint64][]*rec),
	}
	cat.SetMutationHook(ix.onMutate)
	return ix
}

// onMutate is the catalog hook. It runs under the catalog lock, so it
// only does map bookkeeping — the expensive summary work is deferred
// to the next search, or, once a record's queue is full, to the settle
// func the catalog runs after unlocking. A patch against the graph the
// record already tracks queues an incremental delta if a summary exists
// to maintain; anything else (register, replace, a patch whose base we
// never saw) drops the record and starts fresh.
func (ix *Index) onMutate(name string, g *graph.Graph, m catalog.Mutation) (settle func()) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.recs[name]
	if m.Removed {
		if old != nil {
			ix.dropLocked(old)
		}
		return
	}
	if old != nil {
		if old.g == g {
			return // idempotent replay of a graph already indexed
		}
		if m.Patch != nil && old.g == m.Prev {
			old.g = g
			if old.queue {
				old.pending = append(old.pending, patchDelta{prev: m.Prev, g: g, p: m.Patch})
				ix.pending++
			}
			if len(old.pending) > maxPendingDeltas {
				settle = func() { ix.ensure(old) }
			}
			return
		}
		ix.dropLocked(old)
	}
	ix.recs[name] = &rec{name: name, g: g}
	return
}

// PendingDeltas reports the patch deltas queued across all records and
// not yet folded into their summaries.
func (ix *Index) PendingDeltas() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.pending
}

// dropLocked removes r from the record map and, when its hashes were
// committed, from every posting list. Callers hold ix.mu.
func (ix *Index) dropLocked(r *rec) {
	if ix.recs[r.name] == r {
		delete(ix.recs, r.name)
	}
	ix.pending -= len(r.pending)
	r.pending, r.queue = nil, false
	if !r.indexed {
		return
	}
	r.indexed = false
	for _, h := range r.sum.Hashes {
		ix.removePostingLocked(h, r)
	}
}

// removePostingLocked deletes r from the posting list of h. Callers
// hold ix.mu.
func (ix *Index) removePostingLocked(h uint64, r *rec) {
	list := ix.postings[h]
	for i, other := range list {
		if other == r {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(ix.postings, h)
	} else {
		ix.postings[h] = list
	}
}

// ensure brings r's summary up to date: a full summarizeCounted on
// first use, an incremental fold of the queued patch deltas afterwards.
// Edge-only patches touch no shingles — the hash sample and postings
// are reused as-is and only the degree signature shifts; content
// changes re-shingle exactly the written nodes and diff the bottom-k
// sample against the postings. Folding from refcounts keeps the result
// bit-identical to a fresh Summarize of the current graph.
func (ix *Index) ensure(r *rec) {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()

	ix.mu.Lock()
	alive := ix.recs[r.name] == r
	g := r.g
	pending := r.pending
	r.pending = nil
	ix.pending -= len(pending)
	built := r.built
	r.queue = alive // from this snapshot on, the summary follows g by deltas
	ix.mu.Unlock()
	if !alive {
		return
	}

	if !built {
		sum, counts, degs := summarizeCounted(g, simmatrix.ContentSets(g, 0))
		ix.mu.Lock()
		if ix.recs[r.name] == r {
			if !r.indexed {
				for _, h := range sum.Hashes {
					ix.postings[h] = append(ix.postings[h], r)
				}
				r.indexed = true
			}
			r.sum, r.counts, r.degs = sum, counts, degs
			r.built = true
		}
		ix.mu.Unlock()
		return
	}
	if len(pending) == 0 {
		return
	}

	contentChanged := false
	for _, pd := range pending {
		prevN := pd.prev.NumNodes()

		// Degree histogram: only endpoints of changed edges and new
		// nodes can shift buckets.
		touched := make(map[graph.NodeID]struct{}, 2*(len(pd.p.DelEdges)+len(pd.p.AddEdges)))
		for _, e := range pd.p.DelEdges {
			touched[e[0]] = struct{}{}
			touched[e[1]] = struct{}{}
		}
		for _, e := range pd.p.AddEdges {
			touched[e[0]] = struct{}{}
			touched[e[1]] = struct{}{}
		}
		for v := prevN; v < pd.g.NumNodes(); v++ {
			touched[graph.NodeID(v)] = struct{}{}
		}
		for v := range touched {
			if int(v) < prevN {
				r.degs[degreeBucket(pd.prev.Degree(v))]--
			}
			r.degs[degreeBucket(pd.g.Degree(v))]++
		}

		// Shingle refcounts: re-shingle only the nodes whose text
		// changed — SetContent targets and added nodes.
		for v := range contentTargets(pd) {
			if int(v) < prevN {
				for h := range simmatrix.ContentSet(pd.prev, v, 0) {
					if r.counts[h]--; r.counts[h] == 0 {
						delete(r.counts, h)
					}
				}
			}
			for h := range simmatrix.ContentSet(pd.g, v, 0) {
				r.counts[h]++
			}
			contentChanged = true
		}
	}

	newSum := Summary{Sig: signatureFromCounts(g.NumNodes(), g.NumEdges(), r.degs)}
	if !contentChanged {
		newSum.Hashes, newSum.Total = r.sum.Hashes, r.sum.Total
		ix.mu.Lock()
		if ix.recs[r.name] == r {
			r.sum = newSum
		}
		ix.mu.Unlock()
		return
	}
	newSum.Total, newSum.Hashes = hashesFromCounts(r.counts)
	added, removed := diffSorted(r.sum.Hashes, newSum.Hashes)
	ix.mu.Lock()
	if ix.recs[r.name] == r {
		if r.indexed {
			for _, h := range removed {
				ix.removePostingLocked(h, r)
			}
			for _, h := range added {
				ix.postings[h] = append(ix.postings[h], r)
			}
		}
		r.sum = newSum
	}
	ix.mu.Unlock()
}

// contentTargets collects the nodes whose content text the patch may
// have changed: SetContent targets plus every added node.
func contentTargets(pd patchDelta) map[graph.NodeID]struct{} {
	out := make(map[graph.NodeID]struct{}, len(pd.p.SetContent)+len(pd.p.AddNodes))
	for v := pd.prev.NumNodes(); v < pd.g.NumNodes(); v++ {
		out[graph.NodeID(v)] = struct{}{}
	}
	for _, cu := range pd.p.SetContent {
		out[cu.Node] = struct{}{}
	}
	return out
}

// diffSorted compares two sorted hash slices and returns the values
// only in b (added) and only in a (removed).
func diffSorted(a, b []uint64) (added, removed []uint64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			removed = append(removed, a[i])
			i++
		default:
			added = append(added, b[j])
			j++
		}
	}
	removed = append(removed, a[i:]...)
	added = append(added, b[j:]...)
	return added, removed
}

// Len reports the number of graphs currently indexed.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.recs)
}

// Candidates scores the query summary against every indexed graph and
// returns the survivors of pol, ordered deterministically: by score
// descending, ties by name ascending (name order alone under
// Policy.Brute). The search operates on a snapshot of the registry —
// graphs registered or patched while a search is scoring are picked up
// by the next search; graphs removed concurrently are skipped.
func (ix *Index) Candidates(pattern Summary, pol Policy) ([]Candidate, Stats) {
	// Snapshot the records, then build or refresh summaries outside the
	// index lock: summarising is pure per record, and rec.buildMu makes
	// concurrent searches cooperate instead of duplicating work.
	// Per-record commits matter because the catalog's mutation hook
	// runs under the catalog lock and takes ix.mu: a whole-catalog
	// commit under one hold would stall every catalog operation, match
	// traffic included, behind the first search.
	ix.mu.Lock()
	snapshot := make([]*rec, 0, len(ix.recs))
	for _, r := range ix.recs {
		snapshot = append(snapshot, r)
	}
	ix.mu.Unlock()
	for _, r := range snapshot {
		ix.ensure(r)
	}

	// Gather overlaps, re-validate the snapshot and capture each
	// record's summary under one more short hold — summaries are
	// republished by later folds, so scoring reads the captured values,
	// which are consistent with the postings gathered in the same hold.
	// A record removed after this point may still be scored — stage 2
	// resolves every candidate through the catalog and drops vanished
	// ones, so coherence holds.
	ix.mu.Lock()
	overlap := make(map[*rec]int)
	if !pol.Brute {
		for _, h := range pattern.Hashes {
			for _, r := range ix.postings[h] {
				overlap[r]++
			}
		}
	}
	alive := snapshot[:0]
	sums := make([]Summary, 0, len(snapshot))
	for _, r := range snapshot {
		if ix.recs[r.name] == r {
			alive = append(alive, r)
			sums = append(sums, r.sum)
		}
	}
	ix.mu.Unlock()

	stats := Stats{Graphs: len(alive)}
	var cands []Candidate
	for i, r := range alive {
		if pol.Brute {
			cands = append(cands, Candidate{Name: r.name})
			continue
		}
		sum := sums[i]
		cont, res := scoreContent(pattern, sum, overlap[r])
		if pol.MinResemblance > 0 && cont < pol.MinResemblance {
			stats.PrunedScore++
			continue
		}
		ss := pattern.Sig.StructSim(sum.Sig)
		cands = append(cands, Candidate{
			Name:        r.name,
			Score:       (1-structWeight)*cont + structWeight*ss,
			Containment: cont,
			Resemblance: res,
			StructSim:   ss,
			Overlap:     overlap[r],
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Name < cands[j].Name
	})
	// Brute force means every graph: the cap never applies to it.
	if !pol.Brute && pol.MaxCandidates > 0 && len(cands) > pol.MaxCandidates {
		stats.PrunedCap = len(cands) - pol.MaxCandidates
		cands = cands[:pol.MaxCandidates:pol.MaxCandidates]
	}
	stats.Candidates = len(cands)
	return cands, stats
}
