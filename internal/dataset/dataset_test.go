package dataset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/query"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(BarabasiAlbert, 500, 2000, 7)
	b := Generate(BarabasiAlbert, 500, 2000, 7)
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("nondeterministic edge count: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	c := Generate(BarabasiAlbert, 500, 2000, 8)
	same := len(a.Edges) == len(c.Edges)
	if same {
		identical := true
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical graphs")
		}
	}
}

// Property: generated graphs are simple (no self loops, no duplicates, u<v)
// with vertices in range.
func TestGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		m := rng.Intn(600)
		model := Model(rng.Intn(3))
		g := Generate(model, n, m, seed)
		seen := make(map[[2]int64]bool)
		for _, e := range g.Edges {
			u, v := e[0], e[1]
			if u >= v || u < 0 || v >= int64(n) {
				return false
			}
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEdgeCounts(t *testing.T) {
	// Erdős–Rényi hits the target nearly exactly at low density.
	g := Generate(ErdosRenyi, 10000, 20000, 1)
	if got := len(g.Edges); got < 19000 || got > 20000 {
		t.Errorf("ER edges = %d, want ~20000", got)
	}
	// Attachment models approximate the target.
	g = Generate(BarabasiAlbert, 5000, 20000, 1)
	if got := len(g.Edges); got < 10000 || got > 30000 {
		t.Errorf("BA edges = %d, want within 2x of 20000", got)
	}
}

// TestTriangleRegimes checks the dataset substitution argument (DESIGN.md
// §5): Erdős–Rényi stand-ins are triangle-poor, Holme–Kim stand-ins are
// triangle-rich — mirroring p2p-Gnutella (934 triangles on 40k edges) vs
// ego-Facebook (1.6M triangles on 88k edges).
func TestTriangleRegimes(t *testing.T) {
	er := Generate(ErdosRenyi, 10876, 39994, 103)
	hk := Generate(HolmeKim, 4039, 88234, 105)
	erT, hkT := er.TriangleCount(), hk.TriangleCount()
	if erT > 2000 {
		t.Errorf("ER stand-in has %d triangles, want few (p2p regime)", erT)
	}
	if hkT < 20000 {
		t.Errorf("HK stand-in has %d triangles, want many (facebook regime)", hkT)
	}
	if hkT < 100*erT {
		t.Errorf("regime separation too small: HK=%d ER=%d", hkT, erT)
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 15 {
		t.Fatalf("catalog has %d entries, want 15 (the paper's table)", len(cat))
	}
	for _, s := range cat {
		if s.Nodes <= 0 || s.Edges <= 0 {
			t.Errorf("%s: empty scaled size", s.Name)
		}
		if s.PaperNodes/s.ScaleDiv != s.Nodes {
			t.Errorf("%s: inconsistent scaling", s.Name)
		}
	}
	if _, err := Lookup("ego-Facebook"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) should fail")
	}
}

func TestSampleSelectivity(t *testing.T) {
	g := Generate(ErdosRenyi, 10000, 5000, 3)
	rng := rand.New(rand.NewSource(1))
	s10 := g.Sample(rng, 10)
	if len(s10) < 800 || len(s10) > 1200 {
		t.Errorf("selectivity 10 sampled %d of 10000, want ~1000", len(s10))
	}
	s1 := g.Sample(rng, 1)
	if len(s1) != g.N {
		t.Errorf("selectivity 1 sampled %d, want all %d", len(s1), g.N)
	}
	// Never empty.
	tiny := &Graph{N: 3}
	if len(tiny.Sample(rng, 1000)) == 0 {
		t.Error("sample must never be empty")
	}
}

func TestSampleOfSize(t *testing.T) {
	g := Generate(ErdosRenyi, 100, 50, 3)
	rng := rand.New(rand.NewSource(2))
	s := g.SampleOfSize(rng, 10)
	if len(s) != 10 {
		t.Fatalf("got %d, want 10", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("sample not sorted/distinct")
		}
	}
	if got := g.SampleOfSize(rng, 1000); len(got) != g.N {
		t.Errorf("oversized request returned %d, want all %d", len(got), g.N)
	}
}

func TestEdgePrefix(t *testing.T) {
	g := Generate(ErdosRenyi, 100, 80, 4)
	p := g.EdgePrefix(10)
	if len(p.Edges) != 10 {
		t.Errorf("prefix has %d edges, want 10", len(p.Edges))
	}
	if got := g.EdgePrefix(10_000); len(got.Edges) != len(g.Edges) {
		t.Error("oversized prefix should clamp")
	}
}

func TestDBSchema(t *testing.T) {
	g := Generate(ErdosRenyi, 50, 100, 5)
	db := DB(g, 10, 42)
	edge, err := db.Relation(query.Edge)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := db.Relation(query.Fwd)
	if err != nil {
		t.Fatal(err)
	}
	if edge.Len() != 2*fwd.Len() {
		t.Errorf("edge (%d) must be twice fwd (%d)", edge.Len(), fwd.Len())
	}
	for _, name := range []string{query.Sample1, query.Sample2, query.Sample3, query.Sample4} {
		s, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() == 0 {
			t.Errorf("sample %s empty", name)
		}
	}
}

// TestReplaceSamples: the redraw replaces both samples as one write, so a
// lease taken before it reads both old samples through a plan compiled
// before it, and the next execution reads both new ones.
func TestReplaceSamples(t *testing.T) {
	g := Generate(ErdosRenyi, 50, 100, 5)
	db := DB(g, 10, 42)
	q := query.New("q", query.Atom{Rel: query.Sample1, Vars: []string{"a"}}, query.Atom{Rel: query.Sample2, Vars: []string{"b"}})
	plan, err := core.NewPlan(q, db, "lftj", []string{"a", "b"}, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	lens := func(gen *core.Generation) [2]int {
		return [2]int{gen.Overlay(plan.Atoms[0].Index).Len(), gen.Overlay(plan.Atoms[1].Index).Len()}
	}
	lease := db.NewLease()
	old := lens(plan.Pin())
	if old == [2]int{3, 1} {
		t.Fatal("the old samples have the new sizes; the lease check would prove nothing")
	}
	ReplaceSamples(db, []int64{1, 2, 3}, []int64{4})
	if got := lens(plan.Pin()); got != [2]int{3, 1} {
		t.Errorf("ReplaceSamples: v1, v2 sizes %v, want [3 1]", got)
	}
	if got := lens(lease.Pin(plan)); got != old {
		t.Errorf("a lease taken before the redraw reads v1, v2 sizes %v, want the old %v", got, old)
	}
}

func TestGeneratePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zeroNodes": func() { Generate(ErdosRenyi, 0, 5, 1) },
		"badModel":  func() { Generate(Model(99), 5, 5, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestModelString(t *testing.T) {
	if ErdosRenyi.String() != "erdos-renyi" || HolmeKim.String() != "holme-kim" {
		t.Error("Model.String wrong")
	}
}

// TriangleCount counts the triangles of the generated graph, so the tests
// can assert the regimes match the paper's table qualitatively.
func (g *Graph) TriangleCount() int64 {
	adj := make(map[int64][]int64)
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for u := range adj {
		slices.Sort(adj[u])
	}
	var n int64
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		// Count common neighbors w > v > u to count each triangle once.
		a, b := adj[u], adj[v]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				if a[i] > u && a[i] > v {
					n++
				}
				i++
				j++
			}
		}
	}
	return n
}
