package search

import (
	"sort"
	"sync"

	"graphmatch/internal/catalog"
)

// rec is the index's record of one registered graph. It holds no graph:
// its summary is read from the catalog's content index of the graph
// version current when a search ensures it (once, outside the index
// lock — shingling a whole graph must not stall registration or
// concurrent searches). A commit only marks the record stale.
type rec struct {
	name string

	// fresh is guarded by Index.mu: false from registration and from
	// each patch until a search has rebuilt sum from a version no older.
	fresh bool

	// buildMu serialises summary rebuilds for this record. sum is
	// written by the buildMu holder and published under Index.mu,
	// where Candidates snapshots it; sum.Hashes are exactly the hashes
	// the record is posted under.
	buildMu sync.Mutex
	sum     Summary
}

// Index is the stage-1 candidate index over a catalog's registered
// graphs: an inverted index from content shingle hashes to graphs,
// plus per-graph structural signatures. It is safe for concurrent use
// and stays coherent with the catalog through the mutation hook
// NewIndex installs — Register, Remove and Apply reach the index
// synchronously, in mutation order.
type Index struct {
	cat      *catalog.Catalog
	mu       sync.Mutex
	recs     map[string]*rec
	postings map[uint64][]*rec
}

// NewIndex builds an index over cat and keeps it coherent by
// installing the catalog's mutation hook (replacing any previous hook;
// the catalog supports one observer, and the serving engine creates
// exactly one index per catalog). Graphs already registered are
// replayed into the index during installation, so attaching to a
// populated catalog is equivalent to having observed every Register.
func NewIndex(cat *catalog.Catalog) *Index {
	ix := &Index{
		cat:      cat,
		recs:     make(map[string]*rec),
		postings: make(map[uint64][]*rec),
	}
	cat.SetMutationHook(ix.onMutate)
	return ix
}

// onMutate is the catalog hook. It runs under the catalog lock, so it
// only does map bookkeeping: a removal drops the record, a patch marks
// it stale, and a registration starts a stale one. The summary work is
// deferred to the next search.
func (ix *Index) onMutate(name string, removed bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	r := ix.recs[name]
	switch {
	case removed:
		if r != nil {
			delete(ix.recs, name)
			ix.repostLocked(r, nil)
		}
	case r != nil:
		r.fresh = false
	default:
		ix.recs[name] = &rec{name: name}
	}
}

// repostLocked moves r's postings from r.sum.Hashes to hashes. The two
// are the same slice when the catalog carried the content index
// forward (an edge-only patch), and the postings stay as they are.
// Callers hold ix.mu.
func (ix *Index) repostLocked(r *rec, hashes []uint64) {
	old := r.sum.Hashes
	if len(old) == len(hashes) && (len(old) == 0 || &old[0] == &hashes[0]) {
		return
	}
	for _, h := range old {
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
	for _, h := range hashes {
		ix.postings[h] = append(ix.postings[h], r)
	}
	r.sum.Hashes = hashes
}

// ensure rebuilds a stale record's summary from the catalog's content
// index of the current graph version, which stage 2's content matrices
// read too, so each version is shingled once. The record is marked
// fresh before the catalog is read: a commit landing after that marks
// it stale again, and the next search rebuilds once more.
func (ix *Index) ensure(r *rec) {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()

	ix.mu.Lock()
	stale := ix.recs[r.name] == r && !r.fresh
	r.fresh = true
	ix.mu.Unlock()
	if !stale {
		return
	}
	g, content, err := ix.cat.ContentSets(r.name)
	if err != nil {
		return // removed meanwhile: the hook has dropped the record
	}
	sum := SummaryOf(g, content.Shingles())
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.recs[r.name] == r {
		ix.repostLocked(r, sum.Hashes)
		r.sum = sum
	}
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
	// Snapshot the records, then refresh stale summaries outside the
	// index lock: rec.buildMu makes concurrent searches cooperate
	// instead of duplicating work.
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
	// republished by later rebuilds, so scoring reads the captured values,
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
