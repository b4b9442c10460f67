package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minesweeper"
)

func TestCountTrianglesAllEngines(t *testing.T) {
	s := k4(t)
	for _, alg := range append([]Algorithm{""}, Algorithms()...) {
		got, err := s.Count(context.Background(), Triangles(), Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if got != 4 {
			t.Errorf("%q: triangles(K4) = %d, want 4", alg, got)
		}
	}
}

func TestGeneratedGraphConsistency(t *testing.T) {
	g := dataset.Generate(dataset.BarabasiAlbert, 400, 1600, 3)
	if g.N != 400 || len(g.Edges) == 0 {
		t.Fatalf("nodes=%d edges=%d", g.N, len(g.Edges))
	}
	s := graphStore(t, g, 1, 3)
	ctx := context.Background()
	a, err := s.Count(ctx, Triangles(), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Count(ctx, Triangles(), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("lftj=%d ms=%d", a, b)
	}
}

func TestSelectivityAndSamples(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.ErdosRenyi, 200, 400, 5), 10, 7)
	ctx := context.Background()
	n1, err := s.Count(ctx, Paths(3), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := s.Count(ctx, Paths(3), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("ms=%d lftj=%d", n1, n2)
	}
	setSamples(t, s, []int64{0}, []int64{1})
	n3, err := s.Count(ctx, Paths(3), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	n4, err := s.Count(ctx, Paths(3), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n4 {
		t.Errorf("after new samples: ms=%d lftj=%d", n3, n4)
	}
}

func TestEnumerateAPI(t *testing.T) {
	var rows [][]int64
	err := k4(t).Enumerate(context.Background(), Triangles(), Options{}, func(tu []int64) bool {
		rows = append(rows, append([]int64(nil), tu...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("enumerated %d rows, want 4", len(rows))
	}
}

func TestParseQueryAPI(t *testing.T) {
	q, err := ParseQuery("my-triangle", "fwd(a,b), fwd(b,c), fwd(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := k4(t).Count(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("parsed triangle count = %d, want 4", got)
	}
}

func TestDatasetAPI(t *testing.T) {
	spec, err := dataset.Lookup("ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	if g := spec.Build(); g.N != 5242 {
		t.Errorf("ca-GrQc nodes = %d, want 5242", g.N)
	}
	if _, err := dataset.Lookup("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestAGMBoundAPI(t *testing.T) {
	bound, err := k4(t).AGMBound(Triangles())
	if err != nil {
		t.Fatal(err)
	}
	// 6 oriented edges: bound = 6^1.5 ≈ 14.7 >= 4 actual triangles.
	if bound < 4 || bound > 15 {
		t.Errorf("AGM bound = %v, want in [4, 15]", bound)
	}
}

func TestBadAlgorithm(t *testing.T) {
	if _, err := k4(t).Count(context.Background(), Triangles(), Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

// TestIdeaTogglesAPI checks that the ablation toggles the benchmark harness
// sets on the engine options never change a count. They are not serving
// options, so the test drives the engine layer under a store's database.
func TestIdeaTogglesAPI(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 150, 600, 4), 10, 3)
	ctx := context.Background()
	base, err := s.Count(ctx, Comb(), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []minesweeper.Options{
		{DisableMemo: true},
		{DisableSkeleton: true},
		{DisableCountMemo: true},
	} {
		opts := engine.Options{Algorithm: MS, MS: ms}
		plan, err := engine.Compile(opts, Comb(), s.DB())
		if err != nil {
			t.Fatal(err)
		}
		got, err := minesweeper.Run(ctx, plan, plan.Pin(), ms, core.FullRange, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("toggle %+v changed the count: %d vs %d", ms, got, base)
		}
	}
}
