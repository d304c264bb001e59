package search

import (
	"slices"
	"sort"
	"sync"

	"graphmatch/internal/catalog"
	"graphmatch/internal/graph"
)

// rec is the index's record of one registered graph: the summary of
// one graph version, read from the catalog's content index of that
// version. The catalog gives every version its own *graph.Graph, so
// the version pointer alone says whether the summary is current.
type rec struct {
	name string
	g    *graph.Graph
	// sum.Hashes are exactly the hashes the record is posted under.
	sum Summary
}

// Index is the stage-1 candidate index over a catalog's registered
// graphs: an inverted index from content shingle hashes to graphs,
// plus per-graph structural signatures. It is a cache keyed by graph
// version: each search reads the registry once and rebuilds only the
// records whose version it has not summarised, so the catalog never
// calls out to it and any number of indexes may share one catalog. It
// is safe for concurrent use.
type Index struct {
	cat      *catalog.Catalog
	mu       sync.Mutex
	recs     map[string]*rec
	postings map[uint64][]*rec
}

// NewIndex returns an empty index over cat; the first search
// summarises every registered graph.
func NewIndex(cat *catalog.Catalog) *Index {
	return &Index{
		cat:      cat,
		recs:     make(map[string]*rec),
		postings: make(map[uint64][]*rec),
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

// Candidates scores the query summary against every registered graph
// and returns the survivors of pol, ordered deterministically: by score
// descending, ties by name ascending (name order alone under
// Policy.Brute). It ranks the graphs registered when the search read
// the registry: one registered after that read is picked up by the
// next search, and one removed after it may still be scored — stage 2
// resolves every candidate through the catalog and drops vanished
// ones. A graph patched while searches overlap may be scored at the
// version a concurrent search installed; the next search that finds
// a record's version differing from the registry's rebuilds it.
func (ix *Index) Candidates(pattern Summary, pol Policy) ([]Candidate, Stats) {
	reg := ix.cat.Export(nil)
	ix.mu.Lock()
	var stale []string
	for name, g := range reg {
		if r := ix.recs[name]; r == nil || r.g != g {
			stale = append(stale, name)
		}
	}
	ix.mu.Unlock()

	// Summarise the new versions outside the index lock: shingling a
	// whole graph must not stall concurrent searches. Each summary is
	// read from the catalog's content index of the version, which stage
	// 2's content matrices read too, so each version is shingled once.
	fresh := make([]rec, 0, len(stale))
	for _, name := range stale {
		g, content, err := ix.cat.ContentSets(name)
		if err != nil {
			delete(reg, name) // removed since the registry read
			continue
		}
		reg[name] = g
		fresh = append(fresh, rec{name, g, SummaryOf(g, content.Shingles())})
	}

	own := ownersOf(pattern)

	// Install, drop the names that are gone, gather overlaps and
	// capture each summary in one hold, so scoring reads values that
	// are consistent with the postings gathered.
	ix.mu.Lock()
	for _, b := range fresh {
		r := ix.recs[b.name]
		if r == nil {
			r = &rec{name: b.name}
			ix.recs[b.name] = r
		}
		ix.repostLocked(r, b.sum.Hashes)
		r.g, r.sum = b.g, b.sum
	}
	for name, r := range ix.recs {
		if _, ok := reg[name]; !ok {
			delete(ix.recs, name)
			ix.repostLocked(r, nil)
		}
	}
	// Number every graph the pattern's postings reach and count its
	// overlap; when the query counts per pattern node, also add each
	// posting to the count of every pattern node holding its shingle.
	slot := make(map[*rec]int)
	var overlap []int
	var held []int32
	if !pol.Brute {
		for k, h := range pattern.Hashes {
			holders := own.holders(k)
			for _, r := range ix.postings[h] {
				s, ok := slot[r]
				if !ok {
					s = len(overlap)
					slot[r] = s
					overlap = append(overlap, 0)
					held = append(held, own.zeros...)
				}
				overlap[s]++
				for _, v := range holders {
					held[s*len(own.zeros)+int(v)]++
				}
			}
		}
	}
	alive := make([]*rec, 0, len(reg))
	sums := make([]Summary, 0, len(reg))
	for name := range reg {
		if r := ix.recs[name]; r != nil {
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
		s, reached := slot[r]
		n := 0
		if reached {
			n = overlap[s]
		}
		cont, res := scoreContent(pattern, sum, n)
		if pol.MinResemblance > 0 && cont < pol.MinResemblance {
			stats.PrunedScore++
			continue
		}
		ss := pattern.Sig.StructSim(sum.Sig)
		c := Candidate{
			Name:        r.name,
			Score:       (1-structWeight)*cont + structWeight*ss,
			Containment: cont,
			Resemblance: res,
			StructSim:   ss,
			Overlap:     n,
		}
		// A sampled graph is posted under part of its shingles only.
		if own.zeros != nil && sum.Total == len(sum.Hashes) {
			c.Held = own.zeros
			if n1 := len(own.zeros); reached {
				c.Held = held[s*n1 : (s+1)*n1 : (s+1)*n1]
			}
		}
		cands = append(cands, c)
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

// owners inverts a query pattern's per-node shingle positions: the
// pattern nodes holding key k are nodes[offs[k]:offs[k+1]]. zeros is one
// count per pattern node, all zero, and nil when the query is not
// counted per node.
type owners struct {
	offs  []int32
	nodes []int32
	zeros []int32
}

// ownersOf inverts the per-node structure of a query summary, or returns
// the zero owners when it has none or its shingle set was sampled (the
// unsampled shingles would go uncounted).
func ownersOf(q Summary) owners {
	p := q.Nodes
	if p == nil || q.Total > len(q.Hashes) {
		return owners{}
	}
	n1 := p.NumNodes()
	o := owners{offs: make([]int32, len(q.Hashes)+1), zeros: make([]int32, n1)}
	for v := range n1 {
		for _, k := range p.NodeKeys(graph.NodeID(v)) {
			o.offs[k+1]++
		}
	}
	for k := range q.Hashes {
		o.offs[k+1] += o.offs[k]
	}
	o.nodes = make([]int32, o.offs[len(q.Hashes)])
	at := slices.Clone(o.offs[:len(q.Hashes)])
	for v := range n1 {
		for _, k := range p.NodeKeys(graph.NodeID(v)) {
			o.nodes[at[k]] = int32(v)
			at[k]++
		}
	}
	return o
}

// holders returns the pattern nodes holding key k (none when the query
// is not counted per node).
func (o owners) holders(k int) []int32 {
	if o.zeros == nil {
		return nil
	}
	return o.nodes[o.offs[k]:o.offs[k+1]]
}
