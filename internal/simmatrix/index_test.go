package simmatrix

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphmatch/internal/graph"
	"graphmatch/internal/shingle"
	"graphmatch/internal/webgen"
)

// ContentSets is the map shingling the flat builds replaced: the
// shingle set of every node of g (content, falling back to the label),
// indexed by NodeID. It stays here as the reference both builds'
// arrays are checked against.
func ContentSets(g *graph.Graph, shingleSize int) []shingle.Set {
	sh := shingle.NewShingler(shingleSize)
	sets := make([]shingle.Set, g.NumNodes())
	for v := range sets {
		sets[v] = sh.Shingle(contentText(g, graph.NodeID(v)))
	}
	return sets
}

// naiveFromContent is the pairwise build FromContent replaced: every
// (pattern node, data node) pair through shingle.Resemblance. It stays
// here as the reference the postings build must equal entry for entry.
func naiveFromContent(g1, g2 *graph.Graph, shingleSize int) *Dense {
	sets1, sets2 := ContentSets(g1, shingleSize), ContentSets(g2, shingleSize)
	d := NewDense(len(sets1), len(sets2))
	for v, s1 := range sets1 {
		for u, s2 := range sets2 {
			d.Set(graph.NodeID(v), graph.NodeID(u), shingle.Resemblance(s1, s2))
		}
	}
	return d
}

// textGraph builds n isolated nodes whose contents draw words from a
// small vocabulary, so shingles collide often; roughly one node in six
// has neither content nor label (an empty shingle set) and one in six
// only a label.
func textGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		node := graph.Node{Weight: 1}
		switch rng.Intn(6) {
		case 0: // empty set
		case 1:
			node.Label = fmt.Sprintf("w%d w%d", rng.Intn(4), rng.Intn(4))
		default:
			node.Label = fmt.Sprintf("l%d", i)
			node.Content = randomText(rng)
		}
		g.AddNodeFull(node)
	}
	g.Finish()
	return g
}

func randomText(rng *rand.Rand) string {
	words := make([]string, 1+rng.Intn(12))
	for i := range words {
		words[i] = fmt.Sprintf("w%d", rng.Intn(5))
	}
	return strings.Join(words, " ")
}

func assertSameMatrix(t *testing.T, name string, got Matrix, want *Dense) {
	t.Helper()
	for v := 0; v < want.Rows(); v++ {
		for u := 0; u < want.Cols(); u++ {
			vv, uu := graph.NodeID(v), graph.NodeID(u)
			if g, w := got.Score(vv, uu), want.Score(vv, uu); g != w {
				t.Fatalf("%s: mat(%d,%d) = %v, pairwise build says %v", name, v, u, g, w)
			}
		}
	}
}

// TestPostingsMatrixEqualsPairwise: the matrix built from postings is the
// pairwise matrix, bit for bit, on random text (shared shingles, empty
// sets on both sides, label fallback) and on generated Web sites.
func TestPostingsMatrixEqualsPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		g1, g2 := textGraph(rng, 1+rng.Intn(8)), textGraph(rng, 1+rng.Intn(30))
		size := rng.Intn(4) // 0 selects the default window
		assertSameMatrix(t, fmt.Sprintf("text %d", i), FromContent(g1, g2, size), naiveFromContent(g1, g2, size))
	}
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 3, Seed: 7})
	for i, data := range arch.Versions {
		pattern := webgen.TopKSkeleton(arch.Versions[0], 8+4*i)
		assertSameMatrix(t, fmt.Sprintf("web v%d", i), FromContent(pattern, data, 0), naiveFromContent(pattern, data, 0))
	}
}

// referenceContentIndex is the build NewContentIndex replaced: a
// shingle.Set per node, every (shingle, node) pair sorted by a comparator,
// and the postings cut where the shingle changes. It stays here as the
// reference the flat build must equal array for array, packing each
// posting as shingleNodes documents.
func referenceContentIndex(g *graph.Graph, shingleSize int) *ContentIndex {
	type entry struct {
		h uint64
		u graph.NodeID
	}
	ix := &ContentIndex{sizes: make([]int32, g.NumNodes())}
	var entries []entry
	for u, set := range ContentSets(g, shingleSize) {
		ix.sizes[u] = int32(len(set))
		if len(set) == 0 {
			ix.empty = append(ix.empty, graph.NodeID(u))
		}
		for h := range set {
			entries = append(entries, entry{h, graph.NodeID(u)})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.u, b.u)) })
	ix.nodes = []graph.NodeID{}
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && entries[j].h == entries[i].h {
			j++
		}
		ix.keys = append(ix.keys, entries[i].h)
		if j-i == 1 {
			ix.post = append(ix.post, 1<<32|uint64(entries[i].u))
		} else {
			ix.post = append(ix.post, uint64(j-i)<<32|uint64(len(ix.nodes)))
			for _, e := range entries[i:j] {
				ix.nodes = append(ix.nodes, e.u)
			}
		}
		i = j
	}
	ix.dir, ix.shift = referenceDirectory(ix.keys)
	return ix
}

// referenceDirectory is the directory by its definition: the smallest
// shift leaving ⌈log2 n⌉ top bits, and per bucket b a binary search for
// the first key whose top bits are ≥ b.
func referenceDirectory(keys []uint64) ([]int32, uint) {
	top := 0
	for 1<<top < len(keys) {
		top++
	}
	shift := uint(64 - top)
	dir := make([]int32, 1<<top+1)
	for b := range dir {
		dir[b] = int32(sort.Search(len(keys), func(k int) bool { return keys[k]>>shift >= uint64(b) }))
	}
	return dir, shift
}

// referenceContentPattern is the preparation NewContentPattern replaced:
// every node's set in map order, the distinct keys sorted by a
// comparator and each node's shingle found among them by binary search.
// It stays here as the reference the flat build must equal array for
// array, up to the order of each node's positions.
func referenceContentPattern(g *graph.Graph, shingleSize int) *ContentPattern {
	sets := ContentSets(g, shingleSize)
	p := &ContentPattern{offs: make([]int, len(sets)+1)}
	var all []uint64
	for v, set := range sets {
		p.offs[v+1] = p.offs[v] + len(set)
		for h := range set {
			all = append(all, h)
		}
	}
	p.keys = slices.Compact(slices.Sorted(slices.Values(all)))
	for _, h := range all {
		k, _ := slices.BinarySearch(p.keys, h)
		p.at = append(p.at, int32(k))
	}
	return p
}

func assertSamePattern(t *testing.T, name string, got, want *ContentPattern) {
	t.Helper()
	switch {
	case !slices.Equal(got.keys, want.keys):
		t.Fatalf("%s: pattern has %d keys, the reference %d (or they differ)", name, len(got.keys), len(want.keys))
	case !slices.Equal(got.offs, want.offs):
		t.Fatalf("%s: pattern offsets %v, the reference %v", name, got.offs, want.offs)
	}
	for v := range got.NumNodes() {
		at, ref := got.NodeKeys(graph.NodeID(v)), slices.Sorted(slices.Values(want.NodeKeys(graph.NodeID(v))))
		if !slices.Equal(at, ref) {
			t.Fatalf("%s: node %d's key positions %v, the reference's sorted %v", name, v, at, ref)
		}
	}
}

func assertSameIndex(t *testing.T, name string, got, want *ContentIndex) {
	t.Helper()
	switch {
	case !slices.Equal(got.keys, want.keys):
		t.Fatalf("%s: %d keys, the reference has %d (or they differ)", name, len(got.keys), len(want.keys))
	case !slices.Equal(got.post, want.post):
		t.Fatalf("%s: packed postings differ from the reference", name)
	case !slices.Equal(got.nodes, want.nodes):
		t.Fatalf("%s: postings differ from the reference", name)
	case !slices.Equal(got.sizes, want.sizes):
		t.Fatalf("%s: set sizes %v, the reference %v", name, got.sizes, want.sizes)
	case !slices.Equal(got.empty, want.empty):
		t.Fatalf("%s: empty nodes %v, the reference %v", name, got.empty, want.empty)
	case got.shift != want.shift || !slices.Equal(got.dir, want.dir):
		t.Fatalf("%s: directory of %d buckets (shift %d), the reference %d (shift %d), or they differ", name, len(got.dir)-1, got.shift, len(want.dir)-1, want.shift)
	case got.Bytes() != want.Bytes():
		t.Fatalf("%s: Bytes() = %d, the reference %d", name, got.Bytes(), want.Bytes())
	}
}

// TestContentIndexEqualsReference: the flat radix build holds the same
// five arrays and directory as the comparator build, and the pattern it
// prepares the same keys, offsets and (sorted) per-node positions as the
// map preparation, on generated Web site versions, random text with shared
// shingles, repeated windows inside one node, empty-content nodes and
// the label fallback, at several windows.
func TestContentIndexEqualsReference(t *testing.T) {
	check := func(name string, g *graph.Graph, size int) {
		t.Helper()
		assertSameIndex(t, name, NewContentIndex(g, size), referenceContentIndex(g, size))
		assertSamePattern(t, name, NewContentPattern(g, size), referenceContentPattern(g, size))
	}
	for _, cat := range []webgen.Category{webgen.Store, webgen.Newspaper} {
		arch := webgen.Generate(webgen.Config{Category: cat, Pages: 60, Versions: 3, Seed: 11})
		for i, g := range arch.Versions {
			for _, size := range []int{0, 1, 2, 6} {
				check(fmt.Sprintf("web %v v%d w=%d", cat, i, size), g, size)
			}
		}
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 60; i++ {
		g := textGraph(rng, rng.Intn(40))
		size := rng.Intn(5)
		check(fmt.Sprintf("text %d w=%d", i, size), g, size)
	}
	g := graph.New(5)
	for _, n := range []graph.Node{
		{Weight: 1}, // neither content nor label
		{Label: "Home Page", Weight: 1},
		{Label: "ignored", Content: "a b a b a b a b", Weight: 1}, // one window, repeated
		{Label: "", Content: " ,.; ", Weight: 1},
		{Label: "home page", Content: "", Weight: 1},
	} {
		g.AddNodeFull(n)
	}
	g.Finish()
	for size := 0; size < 4; size++ {
		check(fmt.Sprintf("edge cases w=%d", size), g, size)
	}
}

// scanRow is Row's fallback on its own: what any enumeration must equal.
func scanRow(mat Matrix, v graph.NodeID, n2 int, xi float64) []Scored {
	var out []Scored
	for u := 0; u < n2; u++ {
		if s := mat.Score(v, graph.NodeID(u)); s >= xi {
			out = append(out, Scored{U: graph.NodeID(u), Score: s})
		}
	}
	return out
}

// TestSupportEqualsScan pins the enumeration contract: whatever Support
// lists is exactly what scoring every node finds, in ascending u; ξ ≤ 0
// is declined (it admits nodes no posting mentions), and Row and
// Candidates return the scan's answer either way.
func TestSupportEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		g1, g2 := textGraph(rng, 1+rng.Intn(8)), textGraph(rng, 1+rng.Intn(30))
		mat := FromContent(g1, g2, 2)
		for _, xi := range []float64{-1, 0, 1e-9, 0.3, 0.5, 0.9, 1, 1.1} {
			for v := 0; v < g1.NumNodes(); v++ {
				vv := graph.NodeID(v)
				want := scanRow(mat, vv, g2.NumNodes(), xi)
				got, ok := mat.Support(nil, vv, xi)
				if ok != (xi > 0) {
					t.Fatalf("Support(ξ=%v) enumerable = %v, want %v", xi, ok, xi > 0)
				}
				if ok && !slices.Equal(got, want) {
					t.Fatalf("Support(v=%d, ξ=%v) = %v, scan finds %v", v, xi, got, want)
				}
				if row := Row(nil, mat, vv, g2.NumNodes(), xi); !slices.Equal(row, want) {
					t.Fatalf("Row(v=%d, ξ=%v) = %v, scan finds %v", v, xi, row, want)
				}
			}
			cands := Candidates(g1, g2, mat, xi)
			for v, cs := range cands {
				want := scanRow(mat, graph.NodeID(v), g2.NumNodes(), xi)
				if len(cs) != len(want) {
					t.Fatalf("Candidates[%d] at ξ=%v has %d nodes, scan finds %d", v, xi, len(cs), len(want))
				}
				for k, u := range cs {
					if u != want[k].U {
						t.Fatalf("Candidates[%d][%d] at ξ=%v = %d, scan finds %d", v, k, xi, u, want[k].U)
					}
				}
			}
		}
	}
}

// xiGrid is every threshold the ξ-build tests try: the full build, the
// smallest positive ξ, the serving default, values whose float product
// with a set size lands just past an integer (0.28·25, 0.56·25), the
// exact top, one past it, and a few drawn at random.
func xiGrid(rng *rand.Rand) []float64 {
	grid := []float64{0, 1e-9, 0.1, 0.28, 0.5, 0.56, 0.7, 0.75, 0.9, 1, 1.5}
	for i := 0; i < 3; i++ {
		grid = append(grid, rng.Float64())
	}
	return grid
}

// assertXiBuild checks the matrix of p against ix built at xi against the
// full build: equal entry for entry at and above xi, 0 below it, and
// Support exact at every threshold of grid ≥ xi.
func assertXiBuild(t *testing.T, name string, ix *ContentIndex, p *ContentPattern, xi float64, grid []float64) {
	t.Helper()
	full, built := ix.Matrix(p, 0), ix.Matrix(p, xi)
	n1, n2 := len(p.offs)-1, ix.NumNodes()
	for v := 0; v < n1; v++ {
		vv := graph.NodeID(v)
		for u := 0; u < n2; u++ {
			uu := graph.NodeID(u)
			want := full.Score(vv, uu)
			if want < xi {
				want = 0
			}
			if got := built.Score(vv, uu); got != want {
				t.Fatalf("%s: ξ=%v mat(%d,%d) = %v, the full build restricted to ≥ ξ says %v", name, xi, v, u, got, want)
			}
		}
		for _, x := range grid {
			if x < xi || x <= 0 {
				continue
			}
			got, ok := built.Support(nil, vv, x)
			if want := scanRow(full, vv, n2, x); !ok || !slices.Equal(got, want) {
				t.Fatalf("%s: built at ξ=%v, Support(v=%d, %v) = %v (%v), the full build lists %v", name, xi, v, x, got, ok, want)
			}
		}
	}
}

// TestXiMatrixEqualsFullBuild: the ξ-aware build is the full build
// restricted to the entries ≥ ξ, on random text (shared shingles, empty
// sets, label fallback) and on generated Web sites, at every threshold of
// xiGrid.
func TestXiMatrixEqualsFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		g1, g2 := textGraph(rng, 1+rng.Intn(8)), textGraph(rng, 1+rng.Intn(30))
		size := rng.Intn(4)
		ix, p := NewContentIndex(g2, size), NewContentPattern(g1, size)
		grid := xiGrid(rng)
		for _, xi := range grid {
			assertXiBuild(t, fmt.Sprintf("text %d", i), ix, p, xi, grid)
		}
	}
	arch := webgen.Generate(webgen.Config{Category: webgen.Newspaper, Pages: 60, Versions: 3, Seed: 5})
	for i, data := range arch.Versions {
		ix, p := NewContentIndex(data, 0), NewContentPattern(webgen.TopKSkeleton(arch.Versions[0], 8+4*i), 0)
		grid := xiGrid(rng)
		for _, xi := range grid {
			assertXiBuild(t, fmt.Sprintf("web v%d", i), ix, p, xi, grid)
		}
	}
}

// words is n distinct one-word shingles (window 1).
func words(n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = fmt.Sprintf("w%d", i)
	}
	return strings.Join(w, " ")
}

// TestXiMatrixEdges pins the cases a prefix filter gets wrong first.
func TestXiMatrixEdges(t *testing.T) {
	node := func(text string) graph.Node { return graph.Node{Label: "n", Content: text, Weight: 1} }
	blank := graph.Node{Weight: 1} // no content, no label: the empty set
	one := func(n graph.Node) *graph.Graph {
		g := graph.New(1)
		g.AddNodeFull(n)
		g.Finish()
		return g
	}
	cases := []struct {
		name          string
		pattern, data graph.Node
		xi, want      float64
	}{
		// 0.28·25 is 7.000000000000001 in float64: ⌈ξ·|S_v|⌉ = 8 would
		// demand one shingle more than the pair shares. (0.7·10 rounds
		// to 7 exactly, so that case passes either way.)
		{"S_u ⊂ S_v, 7 of 25 at ξ = 0.28", node(words(25)), node(words(7)), 0.28, 0.28},
		{"S_u ⊂ S_v, 7 of 10 at ξ = 0.7", node(words(10)), node(words(7)), 0.7, 0.7},
		{"equal sets at ξ = 1", node("a b c d"), node("d c b a"), 1, 1},
		{"empty sets on both sides", blank, blank, 0.75, 1},
		{"empty sets above ξ = 1", blank, blank, 1.5, 0},
		{"a pattern shingle absent from the graph", node("a b c d"), node("a b c"), 0.75, 0.75},
		{"one set empty", node("a"), blank, 0, 0},
		{"ξ above 1", node("a b"), node("a b"), 1.5, 0},
		{"ξ NaN admits nothing", node("a b"), node("a b"), math.NaN(), 0},
	}
	for _, c := range cases {
		g1, g2 := one(c.pattern), one(c.data)
		m := NewContentIndex(g2, 1).Matrix(NewContentPattern(g1, 1), c.xi)
		if got := m.Score(0, 0); got != c.want {
			t.Errorf("%s: mat = %v, want %v", c.name, got, c.want)
		}
		if want := naiveFromContent(g1, g2, 1).Score(0, 0); c.want != 0 && c.want != want {
			t.Errorf("%s: the pairwise build scores %v, the case expects %v", c.name, want, c.want)
		}
		if row := Row(nil, m, 0, 1, c.xi); (len(row) == 1) != (c.want >= c.xi) {
			t.Errorf("%s: Row at ξ=%v lists %v", c.name, c.xi, row)
		}
	}
	for _, c := range []struct {
		a, want int
		xi      float64
	}{{25, 7, 0.28}, {25, 14, 0.56}, {10, 7, 0.7}, {10, 0, 0}, {10, 1, 1e-9}, {10, 10, 1}, {10, 11, 1.5}} {
		if got := minOverlap(c.a, c.xi); got != c.want {
			t.Errorf("minOverlap(%d, %v) = %d, want %d", c.a, c.xi, got, c.want)
		}
	}
}

// TestSupportBelowFloorPanics: a matrix built at ξ holds nothing below
// it, so listing its support lower — directly or through Row, whose
// fallback would read the dropped pairs as 0 — must fail loudly.
func TestSupportBelowFloorPanics(t *testing.T) {
	g := textGraph(rand.New(rand.NewSource(4)), 12)
	m := NewContentIndex(g, 2).Matrix(NewContentPattern(g, 2), 0.75)
	for _, xi := range []float64{0.5, 0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Row at ξ=%v of a matrix built at 0.75 did not panic", xi)
				}
			}()
			Row(nil, m, 0, g.NumNodes(), xi)
		}()
	}
	if _, ok := m.Support(nil, 0, 0.75); !ok {
		t.Error("Support at the build's own ξ declined")
	}
	full := FromContent(g, g, 2) // built at 0: complete, any ξ may read it
	if row := Row(nil, full, 0, g.NumNodes(), -1); len(row) != g.NumNodes() {
		t.Errorf("Row at ξ=-1 of the full build lists %d of %d nodes", len(row), g.NumNodes())
	}
}

// fuzzGraph turns text into isolated nodes, one per line (at most 8).
func fuzzGraph(text string) *graph.Graph {
	lines := strings.Split(text, "\n")
	lines = lines[:min(len(lines), 8)]
	g := graph.New(len(lines))
	for _, l := range lines {
		g.AddNodeFull(graph.Node{Content: l, Weight: 1})
	}
	g.Finish()
	return g
}

// FuzzContentMatrix: bytes → window, ξ and two tiny text graphs (split
// at the first '|'); the pattern is prepared by NewContentPattern, the
// ξ build must be the full build at and above ξ, and the full build the
// pairwise one over the map reference sets.
func FuzzContentMatrix(f *testing.F) {
	f.Add([]byte("\x01\x50a b c d e f g h i j\nx y|a b c d e f g\n\nx y z"))
	f.Add([]byte("\x00\x55w1 w2 w3 w4 w1 w2\nw2 w3|w1 w2 w3 w4\nw3 w4 w1"))
	f.Add([]byte("\x02\x0a\n|\n"))
	f.Add([]byte("\x01\x6ea b|a b\nb a"))
	f.Add([]byte("\x01\x26" + words(25) + "|" + words(7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		window, xi := int(data[0]%4), float64(int(data[1])-10)/100
		pat, dat, _ := strings.Cut(string(data[2:]), "|")
		g1, g2 := fuzzGraph(pat), fuzzGraph(dat)
		ix, p := NewContentIndex(g2, window), NewContentPattern(g1, window)
		assertSameMatrix(t, "full build", ix.Matrix(p, 0), naiveFromContent(g1, g2, window))
		assertXiBuild(t, "fuzz", ix, p, xi, []float64{xi, xi + 0.05, 0.5, 0.75, 1})
	})
}

var matrixSink *RowSparse

// BenchmarkContentMatrix: one web_search-shaped build, a 12-hub skeleton
// of a site's first version against its second, at the serving ξ and as
// the full build.
func BenchmarkContentMatrix(b *testing.B) {
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 2, Seed: 7})
	ix := NewContentIndex(arch.Versions[1], 0)
	p := NewContentPattern(webgen.TopKSkeleton(arch.Versions[0], 12), 0)
	for _, xi := range []float64{0.75, 0} {
		b.Run(fmt.Sprintf("xi=%v", xi), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				matrixSink = ix.Matrix(p, xi)
			}
		})
	}
}

// BenchmarkContentMatrixFleet: web_search's stage-2 builds as a server
// sees them — an 8- to 16-hub skeleton of each site against that site's
// 11 versions, in a 10-site × 11-version catalog of 60-page sites, the
// site changing on every call and the version every ten calls, so each
// build finds its index's keys, directory and postings out of cache
// rather than warm from the previous call as in BenchmarkContentMatrix.
func BenchmarkContentMatrixFleet(b *testing.B) {
	const sites, versions = 10, 11
	categories := []webgen.Category{webgen.Store, webgen.Organization, webgen.Newspaper}
	var fleet []*ContentIndex // site s's version v is fleet[s*versions+v]
	var patterns []*ContentPattern
	for s := range sites {
		arch := webgen.Generate(webgen.Config{Category: categories[s%3], Pages: 60, Versions: versions, Seed: int64(s)})
		for _, g := range arch.Versions {
			fleet = append(fleet, NewContentIndex(g, 0))
		}
		patterns = append(patterns, NewContentPattern(webgen.TopKSkeleton(arch.Versions[5], 8+s%9), 0))
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s, v := i%sites, i/sites%versions
		matrixSink = fleet[s*versions+v].Matrix(patterns[s], 0.75)
		i++
	}
}

var (
	indexSink   *ContentIndex
	patternSink *ContentPattern
)

// BenchmarkNewContentIndex: the first content read of one web_search
// graph version, a 60-page site shingled into its candidate index.
func BenchmarkNewContentIndex(b *testing.B) {
	g := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 1, Seed: 7}).Versions[0]
	b.ReportAllocs()
	for b.Loop() {
		indexSink = NewContentIndex(g, 0)
	}
}

// BenchmarkNewContentPattern: the preparation of one web_search pattern,
// a 12-hub skeleton of a 60-page site, done once per search.
func BenchmarkNewContentPattern(b *testing.B) {
	g := webgen.TopKSkeleton(webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 1, Seed: 7}).Versions[0], 12)
	b.ReportAllocs()
	for b.Loop() {
		patternSink = NewContentPattern(g, 0)
	}
}

// TestHeldShinglesBoundRows pins the content bound search stage 1 reads
// off its postings: a pattern node v that shares n of its a shingles
// with the data graph as a whole scores at most n/a against any one data
// node, so n/a is at least every entry of row v, at every threshold the
// matrix is built at. An empty S_v has no such bound (it resembles the
// graph's empty nodes fully) and is skipped here.
func TestHeldShinglesBoundRows(t *testing.T) {
	check := func(name string, ix *ContentIndex, p *ContentPattern) {
		t.Helper()
		union, keys := ix.Shingles(), p.Shingles()
		for _, xi := range []float64{0, 0.3, 0.75, 1} {
			mat := ix.Matrix(p, xi)
			for v := 0; v < p.NumNodes(); v++ {
				at := p.NodeKeys(graph.NodeID(v))
				if len(at) == 0 {
					continue
				}
				held := 0
				for _, k := range at {
					if _, ok := slices.BinarySearch(union, keys[k]); ok {
						held++
					}
				}
				ub := float64(held) / float64(len(at))
				for _, e := range mat.rows[v] {
					if e.Score > ub {
						t.Fatalf("%s: ξ=%v mat(%d,%d) = %v above the held bound %d/%d", name, xi, v, e.U, e.Score, held, len(at))
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		g1, g2 := textGraph(rng, 1+rng.Intn(8)), textGraph(rng, 1+rng.Intn(30))
		size := rng.Intn(4)
		check(fmt.Sprintf("text %d", i), NewContentIndex(g2, size), NewContentPattern(g1, size))
	}
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 4, Seed: 6})
	for i, data := range arch.Versions {
		for j, src := range arch.Versions {
			check(fmt.Sprintf("web v%d in v%d", j, i), NewContentIndex(data, 0), NewContentPattern(webgen.TopKSkeleton(src, 8+2*j), 0))
		}
	}
}

// gallopResolve is the join the directory replaced: one forward merge of
// the ascending pattern keys against the graph's that gallops over the
// graph's side. It stays here as the reference resolve must equal; it
// gives each key's index among graph, or -1 where the graph lacks it.
func gallopResolve(graph, keys []uint64) []int {
	var post []int
	n, j := len(graph), 0 // every graph[:j] is below the key sought
	for _, h := range keys {
		hi, step := j, 1
		for hi < n && graph[hi] < h {
			j = hi + 1
			hi += step
			step *= 2
		}
		off, ok := slices.BinarySearch(graph[j:min(hi+1, n)], h)
		j += off
		if !ok {
			post = append(post, -1)
			continue
		}
		post = append(post, j)
		j++
	}
	return post
}

// keyIndex is an index over the given ascending distinct keys alone: the
// posting of keys[k] lists the k%3+1 nodes from k on, so the packings
// resolve returns vary.
func keyIndex(keys []uint64) *ContentIndex {
	ix := &ContentIndex{keys: keys}
	for k := range keys {
		if k%3 == 0 {
			ix.post = append(ix.post, 1<<32|uint64(k))
			continue
		}
		ix.post = append(ix.post, uint64(k%3+1)<<32|uint64(len(ix.nodes)))
		for u := range k%3 + 1 {
			ix.nodes = append(ix.nodes, graph.NodeID(k+u))
		}
	}
	ix.dir, ix.shift = directory(keys)
	return ix
}

// assertResolve checks the directory against its definition and resolve
// against the gallop: every pattern key the graph holds reads its
// posting as packed beside the key, every other one reads 0.
func assertResolve(t *testing.T, name string, ix *ContentIndex, keys []uint64) {
	t.Helper()
	if dir, shift := referenceDirectory(ix.keys); shift != ix.shift || !slices.Equal(dir, ix.dir) {
		t.Fatalf("%s: directory %v (shift %d), by definition %v (shift %d)", name, ix.dir, ix.shift, dir, shift)
	}
	got, want := ix.resolve(nil, keys), gallopResolve(ix.keys, keys)
	if len(got) != len(want) {
		t.Fatalf("%s: resolve gave %d postings for %d keys", name, len(got), len(keys))
	}
	for i, j := range want {
		packed := uint64(0)
		if j >= 0 {
			packed = ix.post[j]
		}
		if got[i] != packed {
			t.Fatalf("%s: key %#x resolves to %#x, the gallop finds index %d (packed %#x)", name, keys[i], got[i], j, packed)
		}
	}
}

// TestResolveEqualsGallop: the directory finds every pattern key the
// gallop finds, and no other, on hand-built indexes that stress it — no
// keys, one key, every key in one bucket, the extreme keys 0 and
// MaxUint64, pattern keys below, between and above the graph's — and on
// generated Web site versions.
func TestResolveEqualsGallop(t *testing.T) {
	const top = math.MaxUint64
	spread := make([]uint64, 0, 1000)
	for i := range 1000 {
		spread = append(spread, 1000+uint64(i)*(top/1001))
	}
	lowRun := make([]uint64, 100) // all top bits zero: one bucket holds them all
	for i := range lowRun {
		lowRun[i] = uint64(2 * (i + 1))
	}
	probes := []uint64{0, 1, 2, 3, 42, 43, 199, 200, 201, 999, 1000, 1001, top / 2, top - 1, top}
	probes = append(probes, spread[0], spread[1]-1, spread[1], spread[500], spread[500]+1, spread[999])
	probes = slices.Compact(slices.Sorted(slices.Values(probes)))
	for _, c := range []struct {
		name string
		keys []uint64
	}{
		{"no keys", nil},
		{"one key", []uint64{42}},
		{"the key 0 alone", []uint64{0}},
		{"the key MaxUint64 alone", []uint64{top}},
		{"0 and MaxUint64", []uint64{0, top}},
		{"one bucket holds all", lowRun},
		{"spread over every bucket", spread},
		{"spread plus 0 and MaxUint64", append(append([]uint64{0}, spread...), top)},
	} {
		ix := keyIndex(c.keys)
		assertResolve(t, c.name, ix, probes)
		assertResolve(t, c.name+", no pattern keys", ix, nil)
		assertResolve(t, c.name+", its own keys", ix, c.keys)
	}
	arch := webgen.Generate(webgen.Config{Category: webgen.Store, Pages: 60, Versions: 3, Seed: 7})
	for i, data := range arch.Versions {
		assertResolve(t, fmt.Sprintf("web v%d", i), NewContentIndex(data, 0), NewContentPattern(webgen.TopKSkeleton(arch.Versions[0], 8+4*i), 0).Shingles())
	}
}

// FuzzContentIndexResolve: bytes → two ascending key sets, each 9-byte
// record one key (8 bytes, little-endian) and whether it goes to the
// graph, the pattern or both; the first byte's low 6 bits clear as many
// top bits of every key, crowding the keys into few buckets.
func FuzzContentIndexResolve(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 2, 3, 4, 5, 6, 7, 9, 2, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{63, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 255, 255, 255, 255, 255, 255, 255, 255, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mask := uint64(math.MaxUint64) >> (data[0] % 64)
		var graphKeys, patternKeys []uint64
		for rec := data[1:]; len(rec) >= 9; rec = rec[9:] {
			var h uint64
			for i := 8; i >= 1; i-- {
				h = h<<8 | uint64(rec[i])
			}
			h &= mask
			if rec[0]%3 != 1 {
				graphKeys = append(graphKeys, h)
			}
			if rec[0]%3 != 0 {
				patternKeys = append(patternKeys, h)
			}
		}
		graphKeys = slices.Compact(slices.Sorted(slices.Values(graphKeys)))
		patternKeys = slices.Compact(slices.Sorted(slices.Values(patternKeys)))
		assertResolve(t, "fuzz", keyIndex(graphKeys), patternKeys)
	})
}

// minOverlapWalk and leastOverlapWalk are the two least-overlap searches
// walked up from 0, the references the estimated starts must equal.
func minOverlapWalk(a int, xi float64) int {
	n := 0
	for n <= a && float64(n)/float64(a) < xi {
		n++
	}
	return n
}

func leastOverlapWalk(a, b int, xi float64) int {
	n, most := 0, min(a, b)
	for n <= most && float64(n)/float64(a+b-n) < xi {
		n++
	}
	return n
}

// TestOverlapsFromEstimate: starting the least-overlap walks at their
// float estimates changes no answer, over every set size up to 300 (the
// pair form up to 120 a side, and a few large pairs) at every ξ of
// xiGrid, negative and infinite ξ included.
func TestOverlapsFromEstimate(t *testing.T) {
	grid := append(xiGrid(rand.New(rand.NewSource(9))), -1, 0.25, 0.3, 0.6, 0.99, 1+1e-15, 2, math.Inf(1))
	for _, xi := range grid {
		for a := 0; a <= 300; a++ {
			if got, want := minOverlap(a, xi), minOverlapWalk(a, xi); got != want {
				t.Fatalf("minOverlap(%d, %v) = %d, the walk from 0 gives %d", a, xi, got, want)
			}
		}
		share := xi / (1 + xi)
		check := func(a, b int) {
			if got, want := leastOverlap(a, b, xi, share), leastOverlapWalk(a, b, xi); got != want {
				t.Fatalf("leastOverlap(%d, %d, %v) = %d, the walk from 0 gives %d", a, b, xi, got, want)
			}
		}
		for a := 1; a <= 120; a++ {
			for b := 0; b <= 120; b++ {
				check(a, b)
			}
		}
		for _, a := range []int{1, 999, 5000, 65535} {
			for _, b := range []int{0, 1, 1000, 4999, 65536} {
				check(a, b)
			}
		}
	}
}

// TestQuickselect: whatever order distinct values come in, the first k
// after quickselect are the k smallest, and the whole is a permutation
// of the input — sorted, reversed and shuffled orders, k from 0 to n.
func TestQuickselect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(60)
		xs := make([]uint64, n)
		for j := range xs {
			length := uint64(1 + rng.Intn(1+rng.Intn(40)))
			xs[j] = length<<32 | uint64(j)
		}
		switch i % 4 {
		case 1:
			slices.Sort(xs)
		case 2:
			slices.Sort(xs)
			slices.Reverse(xs)
		}
		k := rng.Intn(n + 1)
		sorted := slices.Sorted(slices.Values(xs))
		quickselect(xs, k)
		if got := slices.Sorted(slices.Values(xs)); !slices.Equal(got, sorted) {
			t.Fatalf("quickselect lost or duplicated values: %v, want a permutation of %v", xs, sorted)
		}
		if got := slices.Sorted(slices.Values(xs[:k])); !slices.Equal(got, sorted[:k]) {
			t.Fatalf("quickselect(%d) put %v first, the %d smallest are %v", k, got, k, sorted[:k])
		}
	}
}

// TestSortByHashEqualsStableSort: both of sortByHash's paths — the top
// byte and an insertion sort, taken on few hashes spread over their top
// bytes, and the LSD radix sort, taken on many or on hashes crowded
// into one top byte — order hashes and their ids as a stable comparison
// sort does, duplicates included.
func TestSortByHashEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 400; i++ {
		n := rng.Intn(3000)
		mask := uint64(math.MaxUint64)
		if i%3 == 0 {
			mask >>= 8 // every top byte 0: the radix sort
		}
		hs, ids := make([]uint64, n), make([]graph.NodeID, n)
		for j := range hs {
			hs[j] = rng.Uint64() & mask
			if j > 0 && rng.Intn(4) == 0 {
				hs[j] = hs[rng.Intn(j)] // a shingle another node shares
			}
			ids[j] = graph.NodeID(j)
		}
		type entry struct {
			h uint64
			u graph.NodeID
		}
		want := make([]entry, n)
		for j := range want {
			want[j] = entry{hs[j], ids[j]}
		}
		slices.SortStableFunc(want, func(a, b entry) int { return cmp.Compare(a.h, b.h) })
		gotH, gotU := sortByHash(hs, ids)
		for j, e := range want {
			if gotH[j] != e.h || gotU[j] != e.u {
				t.Fatalf("n=%d mask %#x: entry %d is (%#x, %d), a stable sort puts (%#x, %d)", n, mask, j, gotH[j], gotU[j], e.h, e.u)
			}
		}
	}
}
