package webgen

import (
	"context"
	"testing"

	"graphmatch/internal/core"
	"graphmatch/internal/graph"
	"graphmatch/internal/simmatrix"
)

func TestGenerateArchiveShape(t *testing.T) {
	arch := Generate(Config{Category: Store, Pages: 500, Versions: 11, Seed: 1})
	if len(arch.Versions) != 11 {
		t.Fatalf("versions = %d, want 11", len(arch.Versions))
	}
	for i, g := range arch.Versions {
		if g.NumNodes() < 400 {
			t.Fatalf("version %d has %d nodes, want ≈ 500", i, g.NumNodes())
		}
		if g.NumEdges() == 0 {
			t.Fatalf("version %d has no edges", i)
		}
	}
}

func TestDefaultVersions(t *testing.T) {
	arch := Generate(Config{Category: Organization, Pages: 200, Seed: 2})
	if len(arch.Versions) != 11 {
		t.Fatalf("default versions = %d, want 11", len(arch.Versions))
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(Config{Category: Newspaper, Pages: 300, Versions: 3, Seed: 5})
	b := Generate(Config{Category: Newspaper, Pages: 300, Versions: 3, Seed: 5})
	for i := range a.Versions {
		if !graph.Equal(a.Versions[i], b.Versions[i]) {
			t.Fatalf("version %d differs across equal seeds", i)
		}
	}
}

func TestVersionsEvolve(t *testing.T) {
	arch := Generate(Config{Category: Newspaper, Pages: 300, Versions: 5, Seed: 7})
	if graph.Equal(arch.Versions[0], arch.Versions[4]) {
		t.Fatal("a newspaper site should change across versions")
	}
}

func TestHubStructure(t *testing.T) {
	arch := Generate(Config{Category: Store, Pages: 500, Versions: 1, Seed: 3})
	g := arch.Versions[0]
	home := g.FindLabel("/")
	if home == graph.Invalid {
		t.Fatal("homepage missing")
	}
	st := graph.ComputeStats(g)
	if float64(g.Degree(home)) < st.AvgDeg {
		t.Fatalf("homepage degree %d should exceed the average %.2f", g.Degree(home), st.AvgDeg)
	}
	// Section hubs carry far more degree than the average page.
	sec := g.FindLabel("/section-0/")
	if sec == graph.Invalid {
		t.Fatal("section hub missing")
	}
	if float64(g.Degree(sec)) < 3*st.AvgDeg {
		t.Fatalf("section degree %d should dominate the average %.2f", g.Degree(sec), st.AvgDeg)
	}
}

func TestSkeletonExtractsHubs(t *testing.T) {
	arch := Generate(Config{Category: Store, Pages: 800, Versions: 1, Seed: 9})
	g := arch.Versions[0]
	sk := Skeleton(g, 0.2)
	if sk.NumNodes() == 0 || sk.NumNodes() >= g.NumNodes()/2 {
		t.Fatalf("skeleton size %d of %d looks wrong", sk.NumNodes(), g.NumNodes())
	}
	// Skeletons must contain edges (hub mesh survives induction).
	if sk.NumEdges() == 0 {
		t.Fatal("skeleton has no edges")
	}
}

func TestTopKSkeleton(t *testing.T) {
	arch := Generate(Config{Category: Organization, Pages: 300, Versions: 1, Seed: 4})
	sk := TopKSkeleton(arch.Versions[0], 20)
	if sk.NumNodes() != 20 {
		t.Fatalf("top-20 skeleton has %d nodes", sk.NumNodes())
	}
}

func TestContentAttachedEverywhere(t *testing.T) {
	arch := Generate(Config{Category: Newspaper, Pages: 200, Versions: 1, Seed: 6})
	g := arch.Versions[0]
	for v := 0; v < g.NumNodes(); v++ {
		if g.Content(graph.NodeID(v)) == "" {
			t.Fatalf("node %d has no content", v)
		}
	}
}

func TestVersionsOfSameSiteMatch(t *testing.T) {
	// End-to-end mirror check: consecutive versions of a low-churn site
	// should p-hom match on their skeletons at the paper's 0.75 bar.
	arch := Generate(Config{Category: Organization, Pages: 400, Versions: 3, Seed: 11})
	pattern := Skeleton(arch.Versions[0], 0.2)
	data := Skeleton(arch.Versions[1], 0.2)
	mat := simmatrix.FromContent(pattern, data, 4)
	in := core.NewInstance(pattern, data, mat, 0.75)
	m, _ := in.CompMaxCardCtx(context.Background())
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatal(err)
	}
	if q := in.QualCard(m); q < 0.75 {
		t.Fatalf("adjacent organization versions should match, qualCard = %v", q)
	}
}

func TestNewspaperDriftsFasterThanOrganization(t *testing.T) {
	// The category profiles must produce the paper's ordering: the
	// newspaper's later versions resemble the pattern less than the
	// organization's.
	quality := func(cat Category, pages int) float64 {
		arch := Generate(Config{Category: cat, Pages: pages, Versions: 11, Seed: 13})
		pattern := Skeleton(arch.Versions[0], 0.2)
		data := Skeleton(arch.Versions[10], 0.2)
		mat := simmatrix.FromContent(pattern, data, 4)
		in := core.NewInstance(pattern, data, mat, 0.75)
		m, _ := in.CompMaxCardCtx(context.Background())
		return in.QualCard(m)
	}
	org := quality(Organization, 400)
	news := quality(Newspaper, 400)
	if org <= news {
		t.Fatalf("organization quality %v should exceed newspaper %v", org, news)
	}
}

func TestCategoryString(t *testing.T) {
	if Store.String() != "store" || Organization.String() != "organization" || Newspaper.String() != "newspaper" {
		t.Error("category names wrong")
	}
	if Category(0).String() == "" {
		t.Error("unknown category should still render")
	}
}
