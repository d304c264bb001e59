package search

import (
	"cmp"
	"context"
	"slices"
	"strings"
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
	// slot is the record's number in the postings, for as long as its
	// name stays registered.
	slot int32
}

// postings are (hash, slot) pairs held as two parallel pointer-free
// arrays, ordered by hash and then by slot: every pair appears once and
// the postings of one hash are one contiguous run. A run of edits has
// the same shape, its slot ^s unposting the pair (hash, s).
type postings struct {
	hash []uint64
	slot []int32
}

// Index is the stage-1 candidate index over a catalog's registered
// graphs: an inverted index from content shingle hashes to graphs,
// plus per-graph structural signatures. It is a cache keyed by graph
// version: each search reads the registry once and rebuilds only the
// records whose version it has not summarised, so the catalog never
// calls out to it and any number of indexes may share one catalog. It
// is safe for concurrent use.
type Index struct {
	cat  *catalog.Catalog
	mu   sync.Mutex
	recs map[string]*rec
	// post holds every record's sum.Hashes under its slot. Neither array
	// holds a pointer, so the garbage collector never scans them.
	post postings
	// bySlot maps a slot to its record; nil marks a free slot. It ends
	// in a record (or is nil), so every slot in post is below len(bySlot).
	bySlot []*rec
}

// NewIndex returns an empty index over cat; the first search
// summarises every registered graph.
func NewIndex(cat *catalog.Catalog) *Index {
	return &Index{cat: cat, recs: make(map[string]*rec)}
}

// Bytes reports the heap the postings and the slot table hold: 12 B per
// posting (its hash and its slot) and 8 B per slot. The records' hash
// samples are not counted: they are the key arrays of the catalog's
// content indexes, which the catalog counts.
func (ix *Index) Bytes() int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return int64(8*cap(ix.post.hash) + 4*cap(ix.post.slot) + 8*cap(ix.bySlot))
}

// repost is one record's move from the hashes it is posted under to new
// ones, both ascending.
type repost struct {
	slot     int32
	old, new []uint64
}

// applyLocked moves every record of moves to its new hashes in one
// splice: each move's differences (unpost old ∖ new, post new ∖ old) form
// one ascending run, the runs are merged into one, and the merged run is
// spliced into the postings. Callers hold ix.mu.
func (ix *Index) applyLocked(moves []repost) {
	if len(moves) == 0 {
		return
	}
	// In slot order, so that merging neighbouring runs orders equal
	// hashes by slot.
	slices.SortFunc(moves, func(a, b repost) int { return cmp.Compare(a.slot, b.slot) })
	size := 0
	for _, m := range moves {
		size += len(m.old) + len(m.new)
	}
	edits := postings{make([]uint64, 0, size), make([]int32, 0, size)}
	bounds := make([]int, 1, len(moves)+1)
	for _, m := range moves {
		edits = edits.appendDiff(m.slot, m.old, m.new)
		bounds = append(bounds, len(edits.hash))
	}
	ix.post = ix.post.splice(mergeRuns(edits, bounds))
}

// appendDiff appends the edits that move slot s from the ascending
// hashes old to the ascending hashes new.
func (e postings) appendDiff(s int32, old, new []uint64) postings {
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || i < len(old) && old[i] < new[j]:
			e.hash, e.slot = append(e.hash, old[i]), append(e.slot, ^s)
			i++
		case i == len(old) || new[j] < old[i]:
			e.hash, e.slot = append(e.hash, new[j]), append(e.slot, s)
			j++
		default: // posted before and after
			i++
			j++
		}
	}
	return e
}

// key returns the sort key of entry i: its hash and the slot it posts
// or unposts.
func (p postings) key(i int) (uint64, int32) {
	s := p.slot[i]
	if s < 0 {
		s = ^s
	}
	return p.hash[i], s
}

// before reports whether (h1, s1) orders before (h2, s2).
func before(h1 uint64, s1 int32, h2 uint64, s2 int32) bool {
	return h1 < h2 || h1 == h2 && s1 < s2
}

// mergeRuns merges the ascending runs e[bounds[i]:bounds[i+1]], whose
// slots ascend from run to run, into one, pairwise and bottom-up,
// alternating between e and one more buffer. Each pass merges
// neighbouring runs and keeps equal hashes in run order, so the result
// is ordered by hash and then by slot.
func mergeRuns(e postings, bounds []int) postings {
	if len(bounds) <= 2 {
		return e
	}
	n := len(e.hash)
	buf := postings{make([]uint64, n), make([]int32, n)}
	for len(bounds) > 2 {
		merged := bounds[:1] // written behind the reads of the same pass
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			merge(buf, e, lo, mid, hi)
			merged = append(merged, hi)
		}
		bounds = merged
		e, buf = buf, e
	}
	return e
}

// merge writes the runs src[lo:mid] and src[mid:hi], each ascending by
// hash, into dst[lo:hi] as one, the left run first among equal hashes.
// Each step picks its source by arithmetic rather than by a branch: the
// hashes are uniform, so a branch would be mispredicted half the time.
func merge(dst, src postings, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		right := 0
		if src.hash[j] < src.hash[i] {
			right = 1
		}
		from := i + right*(j-i)
		dst.hash[k], dst.slot[k] = src.hash[from], src.slot[from]
		i, j, k = i+1-right, j+right, k+1
	}
	copy(dst.slot[k:], src.slot[i:mid])
	k += copy(dst.hash[k:], src.hash[i:mid])
	copy(dst.hash[k:], src.hash[j:hi])
	copy(dst.slot[k:], src.slot[j:hi])
}

// seek returns the first index at or after from whose pair is not before
// (h, s), galloping forward from from and then bisecting.
func (p postings) seek(from int, h uint64, s int32) int {
	n, hi, step := len(p.hash), from, 1
	for hi < n && before(p.hash[hi], p.slot[hi], h, s) {
		from = hi + 1
		hi += step
		step *= 2
	}
	for hi = min(hi, n); from < hi; {
		mid := int(uint(from+hi) >> 1)
		if before(p.hash[mid], p.slot[mid], h, s) {
			from = mid + 1
		} else {
			hi = mid
		}
	}
	return from
}

// splice returns the postings with the ascending edit run e applied.
// The untouched span up to each edit is found by galloping and moved
// whole. When the result fits the arrays and fills at least half of
// them it is spliced in place: one forward pass unposts, sliding each
// span left, and notes where each post goes among the pairs kept; one
// backward pass then slides each span right to make room for the posts.
// Otherwise it is copied into new arrays of its size in one forward
// pass. An empty index takes the run itself, which holds posts only.
func (p postings) splice(e postings) postings {
	if len(e.hash) == 0 {
		return p
	}
	if len(p.hash) == 0 {
		return e
	}
	n := len(p.hash)
	for _, s := range e.slot {
		if s < 0 {
			n--
		} else {
			n++
		}
	}
	inPlace := n <= cap(p.hash) && n >= cap(p.hash)/2
	out := p
	if !inPlace {
		out = postings{make([]uint64, n), make([]int32, n)}
	}
	var posts []int // in place: where each post goes among the pairs kept
	at, from := 0, 0
	keep := func(to int) { // moves p[from:to] to out[at:]
		if at != from || !inPlace {
			copy(out.hash[at:], p.hash[from:to])
			copy(out.slot[at:], p.slot[from:to])
		}
		at, from = at+to-from, to
	}
	for i := range e.hash {
		h, s := e.key(i)
		keep(p.seek(from, h, s))
		switch {
		case e.slot[i] < 0:
			if from == len(p.hash) || p.hash[from] != h || p.slot[from] != s {
				panic("search: unposting a pair the index does not hold")
			}
			from++
		case inPlace:
			posts = append(posts, at)
		default:
			out.hash[at], out.slot[at] = h, s
			at++
		}
	}
	keep(len(p.hash))
	if !inPlace {
		return out
	}
	out = postings{p.hash[:n], p.slot[:n]}
	// The kept pairs are out[:end]; the ones from posts[k] on are
	// preceded by k+1 posts and move right by as many.
	end := at
	for i := len(e.hash) - 1; i >= 0; i-- {
		if e.slot[i] < 0 {
			continue
		}
		k := len(posts) - 1
		pos := posts[k]
		copy(out.hash[pos+k+1:], out.hash[pos:end])
		copy(out.slot[pos+k+1:], out.slot[pos:end])
		out.hash[pos+k], out.slot[pos+k] = e.key(i)
		posts, end = posts[:k], pos
	}
	return out
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
		r, err := ix.cat.Resolve(context.TODO(), name, 0, catalog.NeedGraph)
		if err != nil {
			delete(reg, name) // removed since the registry read
			continue
		}
		reg[name] = r.Graph
		fresh = append(fresh, rec{name: name, g: r.Graph, sum: SummaryOf(r.Graph, r.Content().Shingles())})
	}

	own := ownersOf(pattern)
	var stats Stats

	// Install, drop the names that are gone, count overlaps and capture
	// each summary in one hold, so scoring reads values that are
	// consistent with the postings counted. A new name takes the lowest
	// slot that was free before this call: a slot dropped here is not
	// reused until the splice has unposted it.
	ix.mu.Lock()
	var moves []repost
	free := 0 // no slot below free is free for this call
	for _, b := range fresh {
		r := ix.recs[b.name]
		if r == nil {
			for free < len(ix.bySlot) && ix.bySlot[free] != nil {
				free++
			}
			if free == len(ix.bySlot) {
				ix.bySlot = append(ix.bySlot, nil)
			}
			r = &rec{name: b.name, slot: int32(free)}
			ix.bySlot[free] = r
			ix.recs[b.name] = r
		}
		// The hashes are one array when the catalog carried the content
		// index forward (an edge-only patch): the postings stay as they are.
		if old := r.sum.Hashes; r.g == nil || len(old) != len(b.sum.Hashes) || len(old) > 0 && &old[0] != &b.sum.Hashes[0] {
			moves = append(moves, repost{r.slot, old, b.sum.Hashes})
			stats.Installed++
		}
		r.g, r.sum = b.g, b.sum
	}
	for name, r := range ix.recs {
		if _, ok := reg[name]; !ok {
			delete(ix.recs, name)
			ix.bySlot[r.slot] = nil
			moves = append(moves, repost{r.slot, r.sum.Hashes, nil})
			stats.Dropped++
		}
	}
	ix.applyLocked(moves)
	for len(ix.bySlot) > 0 && ix.bySlot[len(ix.bySlot)-1] == nil {
		ix.bySlot = ix.bySlot[:len(ix.bySlot)-1]
	}
	if len(ix.bySlot) == 0 {
		ix.bySlot = nil
	}
	// Count every slot's overlap in one forward walk of the query's
	// ascending hashes over the postings; when the query counts per
	// pattern node, also add each posting to the count of every pattern
	// node holding its shingle.
	n1 := len(own.zeros)
	var overlap, held []int32
	if !pol.Brute {
		overlap = make([]int32, len(ix.bySlot))
		held = make([]int32, len(ix.bySlot)*n1)
		at := 0
		for k, h := range pattern.Hashes {
			holders := own.holders(k)
			for at = ix.post.seek(at, h, 0); at < len(ix.post.hash) && ix.post.hash[at] == h; at++ {
				s := int(ix.post.slot[at])
				overlap[s]++
				for _, v := range holders {
					held[s*n1+int(v)]++
				}
			}
		}
	}
	alive := make([]rec, 0, len(reg))
	for name := range reg {
		if r := ix.recs[name]; r != nil {
			alive = append(alive, *r)
		}
	}
	ix.mu.Unlock()

	stats.Graphs = len(alive)
	var cands []Candidate
	for _, r := range alive {
		if pol.Brute {
			cands = append(cands, Candidate{Name: r.name})
			continue
		}
		sum, s := r.sum, int(r.slot)
		n := int(overlap[s])
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
			c.Held = held[s*n1 : (s+1)*n1 : (s+1)*n1]
		}
		cands = append(cands, c)
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.Name, b.Name))
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
