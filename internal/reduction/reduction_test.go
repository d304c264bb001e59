package reduction

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"graphmatch/internal/core"
	"graphmatch/internal/product"
	"graphmatch/internal/wis"
)

func instance(r PHomInstance) *core.Instance {
	return core.NewInstance(r.G1, r.G2, r.Mat, r.Xi)
}

// --- 3SAT ---

func lit(v int) Literal    { return Literal{Var: v} }
func negLit(v int) Literal { return Literal{Var: v, Neg: true} }

// paperFormula is the running example of the Theorem 4.1(a) proof:
// φ = (x1 ∨ ¬x2 ∨ x3) ∧ (¬x2 ∨ x3 ∨ x4) — satisfiable.
// (0-based: x0..x3.)
func paperFormula() *ThreeSAT {
	return &ThreeSAT{
		NumVars: 4,
		Clauses: []Clause{
			{lit(0), negLit(1), lit(2)},
			{negLit(1), lit(2), lit(3)},
		},
	}
}

func TestThreeSATSolve(t *testing.T) {
	f := paperFormula()
	a, ok := f.Solve()
	if !ok {
		t.Fatal("paper formula is satisfiable")
	}
	if !f.Evaluate(a) {
		t.Fatal("returned assignment does not satisfy")
	}
	// x ∧ ¬x (padded to three distinct vars) is unsatisfiable.
	unsat := &ThreeSAT{
		NumVars: 3,
		Clauses: []Clause{
			{lit(0), lit(0 + 1), lit(2)},
		},
	}
	// Build a genuinely unsatisfiable instance: all 8 sign patterns over
	// three variables — every assignment falsifies one clause.
	unsat.Clauses = nil
	for mask := 0; mask < 8; mask++ {
		var c Clause
		for k := 0; k < 3; k++ {
			c[k] = Literal{Var: k, Neg: mask&(1<<k) != 0}
		}
		unsat.Clauses = append(unsat.Clauses, c)
	}
	if _, ok := unsat.Solve(); ok {
		t.Fatal("all-sign-patterns formula must be unsatisfiable")
	}
}

func TestThreeSATValidate(t *testing.T) {
	bad := &ThreeSAT{NumVars: 2, Clauses: []Clause{{lit(0), lit(0), lit(1)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("repeated variable should fail validation")
	}
	bad2 := &ThreeSAT{NumVars: 2, Clauses: []Clause{{lit(0), lit(1), lit(5)}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range variable should fail validation")
	}
	if _, err := FromThreeSAT(bad); err == nil {
		t.Fatal("FromThreeSAT must reject malformed formulas")
	}
}

func TestThreeSATReductionPaperExample(t *testing.T) {
	r, err := FromThreeSAT(paperFormula())
	if err != nil {
		t.Fatal(err)
	}
	if !r.G1.IsDAG() || !r.G2.IsDAG() {
		t.Fatal("Theorem 4.1(a) constructs DAGs")
	}
	// Size check per the construction: |V1| = 1 + m + n.
	if r.G1.NumNodes() != 1+4+2 {
		t.Fatalf("|V1| = %d, want 7", r.G1.NumNodes())
	}
	// |V2| = 3 + 2m + 8n.
	if r.G2.NumNodes() != 3+8+16 {
		t.Fatalf("|V2| = %d, want 27", r.G2.NumNodes())
	}
	in := instance(r.PHomInstance)
	m, ok, _ := in.DecideCtx(context.Background())
	if !ok {
		t.Fatal("satisfiable formula must yield a p-hom mapping")
	}
	a := r.AssignmentFromMapping(m)
	if !r.Formula.Evaluate(a) {
		t.Fatalf("decoded assignment %v does not satisfy the formula", a)
	}
}

func randomFormula(rng *rand.Rand) *ThreeSAT {
	nv := 4 + rng.Intn(3)
	nc := 2 + rng.Intn(5)
	f := &ThreeSAT{NumVars: nv}
	for j := 0; j < nc; j++ {
		perm := rng.Perm(nv)
		var c Clause
		for k := 0; k < 3; k++ {
			c[k] = Literal{Var: perm[k], Neg: rng.Intn(2) == 0}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

func TestThreeSATReductionEquivalence(t *testing.T) {
	// Property: φ satisfiable ⇔ G1 ≼(e,p) G2, and decoded assignments
	// satisfy φ.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		formula := randomFormula(rng)
		r, err := FromThreeSAT(formula)
		if err != nil {
			return false
		}
		in := instance(r.PHomInstance)
		m, phom, _ := in.DecideCtx(context.Background())
		_, sat := formula.Solve()
		if phom != sat {
			return false
		}
		if phom {
			if in.CheckMapping(m, false) != nil {
				return false
			}
			if !formula.Evaluate(r.AssignmentFromMapping(m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- X3C ---

// paperX3C is the Fig. 8 example: X = {0..5} (q = 2), S = {C1, C2, C3}
// with C1 = {0,1,2}, C2 = {0,1,3}, C3 = {3,4,5}. Exact cover: {C1, C3}.
func paperX3C() *X3C {
	return &X3C{Q: 2, Subsets: [][3]int{{0, 1, 2}, {0, 1, 3}, {3, 4, 5}}}
}

func TestX3CSolve(t *testing.T) {
	x := paperX3C()
	chosen, ok := x.Solve()
	if !ok {
		t.Fatal("paper X3C instance has a cover")
	}
	if !x.IsCover(chosen) {
		t.Fatalf("returned cover %v invalid", chosen)
	}
	// Removing C3 leaves element 4 uncoverable.
	noCover := &X3C{Q: 2, Subsets: [][3]int{{0, 1, 2}, {0, 1, 3}}}
	if _, ok := noCover.Solve(); ok {
		t.Fatal("instance without a cover solved")
	}
}

func TestX3CValidate(t *testing.T) {
	bad := &X3C{Q: 1, Subsets: [][3]int{{0, 0, 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("repeated element should fail validation")
	}
	bad2 := &X3C{Q: 1, Subsets: [][3]int{{0, 1, 9}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range element should fail validation")
	}
	if _, err := FromX3C(bad); err == nil {
		t.Fatal("FromX3C must reject malformed instances")
	}
}

func TestX3CReductionPaperExample(t *testing.T) {
	r, err := FromX3C(paperX3C())
	if err != nil {
		t.Fatal(err)
	}
	if !r.G1.IsDAG() || !r.G2.IsDAG() {
		t.Fatal("Theorem 4.1(b) constructs a tree and a DAG")
	}
	in := instance(r.PHomInstance)
	m, ok, _ := in.Decide11Ctx(context.Background())
	if !ok {
		t.Fatal("coverable instance must yield a 1-1 p-hom mapping")
	}
	cover := r.CoverFromMapping(m)
	if !r.Instance.IsCover(cover) {
		t.Fatalf("decoded cover %v invalid", cover)
	}
}

func randomX3C(rng *rand.Rand) *X3C {
	q := 2 + rng.Intn(2)
	n := q + rng.Intn(4)
	x := &X3C{Q: q}
	for i := 0; i < n; i++ {
		perm := rng.Perm(3 * q)
		x.Subsets = append(x.Subsets, [3]int{perm[0], perm[1], perm[2]})
	}
	return x
}

func TestX3CReductionEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomX3C(rng)
		r, err := FromX3C(x)
		if err != nil {
			return false
		}
		in := instance(r.PHomInstance)
		m, phom, _ := in.Decide11Ctx(context.Background())
		_, coverable := x.Solve()
		if phom != coverable {
			return false
		}
		if phom {
			if in.CheckMapping(m, true) != nil {
				return false
			}
			if !x.IsCover(r.CoverFromMapping(m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- WIS ---

func TestWISReductionDomainIsIndependentSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := wis.NewGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v)
				}
			}
		}
		for v := 0; v < n; v++ {
			g.SetWeight(v, 0.5+rng.Float64()*4.5)
		}
		r := FromWIS(g)
		in := instance(r.PHomInstance)
		m, _ := in.CompMaxSimCtx(context.Background())
		if in.CheckMapping(m, false) != nil {
			return false
		}
		set := r.SetFromMapping(m)
		return g.IsIndependentSet(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWISReductionOptimaCoincide(t *testing.T) {
	// The exact SPH optimum (weight of the matched domain) equals the
	// exact maximum weighted independent set.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		g := wis.NewGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v)
				}
			}
		}
		for v := 0; v < n; v++ {
			g.SetWeight(v, 1+rng.Float64()*4)
		}
		r := FromWIS(g)
		in := instance(r.PHomInstance)
		p := product.Build(in.G1, in.G2, in.Mat, in.Xi, false, in.Reach())
		exactMapping := p.MappingFromClique(p.ExactMaxSimClique())
		mappingWeight := 0.0
		for v := range exactMapping {
			mappingWeight += g.Weight(int(v))
		}
		wisWeight := g.WeightOf(g.ExactMaxWeightIS())
		if diff := mappingWeight - wisWeight; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("seed %d: SPH optimum %v != WIS optimum %v", seed, mappingWeight, wisWeight)
		}
	}
}

func TestWISMappingFromSet(t *testing.T) {
	g := wis.NewGraph(3)
	g.AddEdge(0, 1)
	r := FromWIS(g)
	m := r.MappingFromSet([]int{0, 2})
	in := instance(r.PHomInstance)
	if err := in.CheckMapping(m, false); err != nil {
		t.Fatalf("independent set should decode to a valid mapping: %v", err)
	}
	bad := r.MappingFromSet([]int{0, 1})
	if err := in.CheckMapping(bad, false); err == nil {
		t.Fatal("adjacent nodes should not form a valid mapping")
	}
}
