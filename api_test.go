package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minesweeper"
)

func k4() *Graph {
	return NewGraph([][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

func TestCountTrianglesAllEngines(t *testing.T) {
	g := k4()
	for _, alg := range append([]Algorithm{""}, Algorithms()...) {
		got, err := Count(context.Background(), g, Triangles(), Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if got != 4 {
			t.Errorf("%q: triangles(K4) = %d, want 4", alg, got)
		}
	}
}

func TestGeneratedGraphConsistency(t *testing.T) {
	g := GenerateGraph(BarabasiAlbert, 400, 1600, 3)
	if g.Nodes() != 400 || g.Edges() == 0 {
		t.Fatalf("nodes=%d edges=%d", g.Nodes(), g.Edges())
	}
	ctx := context.Background()
	a, err := Count(ctx, g, Triangles(), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(ctx, g, Triangles(), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("lftj=%d ms=%d", a, b)
	}
}

func TestSelectivityAndSamples(t *testing.T) {
	g := GenerateGraph(ErdosRenyi, 200, 400, 5)
	g.SetSelectivity(10, 7)
	ctx := context.Background()
	n1, err := Count(ctx, g, Paths(3), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Count(ctx, g, Paths(3), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("ms=%d lftj=%d", n1, n2)
	}
	g.SetSamples([]int64{0}, []int64{1})
	n3, err := Count(ctx, g, Paths(3), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	n4, err := Count(ctx, g, Paths(3), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n4 {
		t.Errorf("after SetSamples: ms=%d lftj=%d", n3, n4)
	}
}

func TestEnumerateAPI(t *testing.T) {
	g := k4()
	var rows [][]int64
	err := Enumerate(context.Background(), g, Triangles(), Options{}, func(tu []int64) bool {
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
	got, err := Count(context.Background(), k4(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("parsed triangle count = %d, want 4", got)
	}
}

func TestDatasetAPI(t *testing.T) {
	g, err := Dataset("ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 5242 {
		t.Errorf("ca-GrQc nodes = %d, want 5242", g.Nodes())
	}
	if _, err := Dataset("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestAGMBoundAPI(t *testing.T) {
	g := k4()
	bound, err := AGMBound(g, Triangles())
	if err != nil {
		t.Fatal(err)
	}
	// 6 oriented edges: bound = 6^1.5 ≈ 14.7 >= 4 actual triangles.
	if bound < 4 || bound > 15 {
		t.Errorf("AGM bound = %v, want in [4, 15]", bound)
	}
}

func TestBadAlgorithm(t *testing.T) {
	if _, err := Count(context.Background(), k4(), Triangles(), Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

// TestIdeaTogglesAPI checks that the ablation toggles the benchmark harness
// sets on the engine options never change a count. They are not serving
// options, so the test drives the engine layer under a Graph's database.
func TestIdeaTogglesAPI(t *testing.T) {
	g := GenerateGraph(BarabasiAlbert, 150, 600, 4)
	g.SetSelectivity(10, 3)
	ctx := context.Background()
	base, err := Count(ctx, g, Comb(), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []minesweeper.Options{
		{DisableMemo: true},
		{DisableSkeleton: true},
		{DisableCountMemo: true},
	} {
		opts := engine.Options{Algorithm: MS, MS: ms}
		plan, err := engine.Compile(opts, Comb(), g.DB())
		if err != nil {
			t.Fatal(err)
		}
		got, err := minesweeper.Run(ctx, plan, ms, core.FullRange, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("toggle %+v changed the count: %d vs %d", ms, got, base)
		}
	}
}

func TestCountWithStatsAPI(t *testing.T) {
	g := GenerateGraph(BarabasiAlbert, 100, 400, 6)
	g.SetSelectivity(5, 2)
	n, stats, err := CountWithStats(context.Background(), g, Paths(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outputs != n || stats.Probes == 0 {
		t.Errorf("stats = %+v for count %d", stats, n)
	}
}

func TestMaintainCountAPI(t *testing.T) {
	ctx := context.Background()
	g := NewGraph([][2]int64{{0, 1}, {1, 2}})
	v, err := MaintainCount(ctx, g, Triangles())
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Fatalf("initial = %d", v.Count())
	}
	if err := v.ApplyEdges(ctx, [][2]int64{{0, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 1 {
		t.Errorf("after insert = %d, want 1", v.Count())
	}
	// The underlying graph relations changed too: a fresh engine count agrees.
	n, err := Count(ctx, g, Triangles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("fresh count = %d, want 1", n)
	}
}

func TestTransitiveClosureAPI(t *testing.T) {
	ctx := context.Background()
	g := NewGraph([][2]int64{{0, 1}, {1, 2}})
	g.SetSamples([]int64{0}, []int64{2})
	if err := MaterializeTransitiveClosure(ctx, g); err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("reach", "v1(a), tc(a, b), v2(b)")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(ctx, g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reach = %d, want 1", n)
	}
}
