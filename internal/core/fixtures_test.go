package core

import (
	"context"

	"graphmatch/internal/graph"
	"graphmatch/internal/product"
	"graphmatch/internal/simmatrix"
)

// Shorthands for the context-first entry points under a context that is
// never cancelled, which is what the engine runs with no deadline set.
func compMaxCard(in *Instance) Mapping   { m, _ := in.CompMaxCardCtx(context.Background()); return m }
func compMaxCard11(in *Instance) Mapping { m, _ := in.CompMaxCard11Ctx(context.Background()); return m }
func compMaxSim(in *Instance) Mapping    { m, _ := in.CompMaxSimCtx(context.Background()); return m }
func compMaxSim11(in *Instance) Mapping  { m, _ := in.CompMaxSim11Ctx(context.Background()); return m }

func decide(in *Instance) (Mapping, bool) {
	m, ok, _ := in.DecideCtx(context.Background())
	return m, ok
}

func decide11(in *Instance) (Mapping, bool) {
	m, ok, _ := in.Decide11Ctx(context.Background())
	return m, ok
}

// oracle solves in on Theorem 5.1's explicit product graph (Jain &
// Obermayer's association graph) with one of internal/product's clique
// solvers: ExactMaxCardClique / ExactMaxSimClique give the optimum, and
// MaxCardClique / MaxSimClique the naive approximations compMax* exist
// to avoid. It shares no search code with this package.
func oracle(in *Instance, injective bool, clique func(*product.Product) []int) Mapping {
	p := product.Build(in.G1, in.G2, in.Mat, in.Xi, injective, in.Reach())
	return Mapping(p.MappingFromClique(clique(p)))
}

// Fixtures reconstructing the paper's worked examples. Figure 1's online
// stores and Example 3.1's similarity matrix mate() are reproduced
// faithfully from the text; the Figure 2 walkthroughs and Example 3.3's
// G5/G6 are reconstructed so that every property the text states holds
// (the figures themselves are not machine-readable, so topologies are
// chosen to satisfy the stated claims exactly).

// figure1 returns (Gp, G, mate) of Fig. 1 / Example 3.1: Gp is the online
// store pattern, G the candidate store, and mate() the page-checker
// similarity matrix. Gp ≼(e,p) G and Gp ≼1-1(e,p) G for any ξ ≤ 0.6.
func figure1() (*graph.Graph, *graph.Graph, simmatrix.Matrix) {
	gp := graph.New(6)
	pA := gp.AddNode("A")
	pBooks := gp.AddNode("books")
	pAudio := gp.AddNode("audio")
	pText := gp.AddNode("textbooks")
	pABooks := gp.AddNode("abooks")
	pAlbums := gp.AddNode("albums")
	gp.AddEdge(pA, pBooks)
	gp.AddEdge(pA, pAudio)
	gp.AddEdge(pBooks, pText)
	gp.AddEdge(pBooks, pABooks)
	gp.AddEdge(pAudio, pABooks)
	gp.AddEdge(pAudio, pAlbums)
	gp.Finish()

	g := graph.New(15)
	gB := g.AddNode("B")
	gBooks := g.AddNode("books")
	gSports := g.AddNode("sports")
	gDigital := g.AddNode("digital")
	gCategories := g.AddNode("categories")
	gAudio := g.AddNode("audio")
	gSchool := g.AddNode("school")
	gArts := g.AddNode("arts")
	gAudiobooks := g.AddNode("audiobooks")
	gBooksets := g.AddNode("booksets")
	gDVDs := g.AddNode("DVDs")
	gCDs := g.AddNode("CDs")
	gFeatures := g.AddNode("features")
	gGenres := g.AddNode("genres")
	gAlbums := g.AddNode("albums")
	g.AddEdge(gB, gBooks)
	g.AddEdge(gB, gSports)
	g.AddEdge(gB, gDigital)
	g.AddEdge(gBooks, gCategories)
	g.AddEdge(gBooks, gBooksets)
	g.AddEdge(gBooks, gAudio)
	g.AddEdge(gCategories, gSchool)
	g.AddEdge(gCategories, gArts)
	g.AddEdge(gAudio, gAudiobooks)
	g.AddEdge(gAudio, gDVDs)
	g.AddEdge(gAudio, gCDs)
	g.AddEdge(gDigital, gFeatures)
	g.AddEdge(gDigital, gGenres)
	g.AddEdge(gFeatures, gAudiobooks)
	g.AddEdge(gGenres, gAlbums)
	g.Finish()

	mate := simmatrix.NewSparse()
	mate.Set(pA, gB, 0.7)
	mate.Set(pAudio, gDigital, 0.7)
	mate.Set(pBooks, gBooks, 1.0)
	mate.Set(pABooks, gAudiobooks, 0.8)
	mate.Set(pBooks, gBooksets, 0.6)
	mate.Set(pText, gSchool, 0.6)
	mate.Set(pAlbums, gAlbums, 0.85)
	return gp, g, mate
}

// figure2pair1 exhibits Fig. 2's first property: G1 ≼(e,p) G2 (both "A"
// nodes of G1 share the "A" node of G2) but G1 is not 1-1 p-hom to G2.
// Label equality, ξ = 0.5.
func figure2pair1() (*graph.Graph, *graph.Graph, simmatrix.Matrix) {
	g1 := graph.FromEdgeList([]string{"A", "A", "B"}, [][2]int{{0, 2}, {1, 2}})
	g2 := graph.FromEdgeList([]string{"A", "B"}, [][2]int{{0, 1}})
	return g1, g2, simmatrix.NewLabelEquality(g1, g2)
}

// figure2pair2 exhibits Fig. 2's second property: G3 is not p-hom to G4
// because the single D node of G3 cannot serve both parents at once.
func figure2pair2() (*graph.Graph, *graph.Graph, simmatrix.Matrix) {
	// G3: A → D ← B.
	g3 := graph.FromEdgeList([]string{"A", "B", "D"}, [][2]int{{0, 2}, {1, 2}})
	// G4: A → D1, B → D2 — no single D is reachable from both A and B.
	g4 := graph.FromEdgeList([]string{"A", "B", "D", "D"}, [][2]int{{0, 2}, {1, 3}})
	return g3, g4, simmatrix.NewLabelEquality(g3, g4)
}

// example33 reconstructs Example 3.3: G5 with two B-labelled nodes v1, v2,
// the matrix mat0, threshold ξ = 0.6 and weight w(v2) = 6. The stated
// optima hold: the best 1-1 cardinality mapping covers {A, D, E, v1} with
// qualCard = 0.8 and qualSim = 0.36, while the best 1-1 similarity mapping
// covers {A, v2} with qualSim = 0.7.
func example33() (in *Instance, v1, v2 graph.NodeID) {
	g5 := graph.New(5)
	a := g5.AddNode("A")
	v1 = g5.AddNode("B") // the lightweight B node
	v2 = g5.AddNode("B") // the heavyweight hub
	d := g5.AddNode("D")
	e := g5.AddNode("E")
	g5.AddEdge(a, v1)
	g5.AddEdge(a, v2)
	g5.AddEdge(v2, d)
	g5.AddEdge(v2, e)
	g5.Finish()
	g5.SetWeight(v2, 6)

	g6 := graph.New(4)
	ga := g6.AddNode("A")
	gb := g6.AddNode("B")
	gd := g6.AddNode("D")
	ge := g6.AddNode("E")
	g6.AddEdge(ga, gb)
	g6.Finish()

	mat0 := simmatrix.NewSparse()
	mat0.Set(a, ga, 1)
	mat0.Set(d, gd, 1)
	mat0.Set(e, ge, 1)
	mat0.Set(v2, gb, 1)
	mat0.Set(v1, gb, 0.6)
	return NewInstance(g5, g6, mat0, 0.6), v1, v2
}

// example51 reconstructs Example 5.1's subgraph walkthrough: G'1 induced
// by {books, textbooks, abooks}, G'2 by {books, categories, booksets,
// school, audiobooks}, with the mate() scores of Example 3.1 and ξ = 0.5.
// compMaxCard finds the full 3-node mapping.
func example51() *Instance {
	g1 := graph.New(3)
	books := g1.AddNode("books")
	text := g1.AddNode("textbooks")
	abooks := g1.AddNode("abooks")
	g1.AddEdge(books, text)
	g1.AddEdge(books, abooks)
	g1.Finish()

	g2 := graph.New(5)
	books2 := g2.AddNode("books")
	categories := g2.AddNode("categories")
	booksets := g2.AddNode("booksets")
	school := g2.AddNode("school")
	audiobooks := g2.AddNode("audiobooks")
	g2.AddEdge(books2, categories)
	g2.AddEdge(books2, booksets)
	g2.AddEdge(categories, school)
	g2.AddEdge(categories, audiobooks)
	g2.Finish()

	mate := simmatrix.NewSparse()
	mate.Set(books, books2, 1.0)
	mate.Set(books, booksets, 0.6)
	mate.Set(text, school, 0.6)
	mate.Set(abooks, audiobooks, 0.8)
	return NewInstance(g1, g2, mate, 0.5)
}
