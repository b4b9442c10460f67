package lftj

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// compile builds the plan the engine package compiles for q: under gao, or
// under the planner's order when gao is nil.
func compile(t testing.TB, q *query.Query, db *core.DB, gao []string) *core.Plan {
	t.Helper()
	if gao == nil {
		gao, _ = hypergraph.ChooseGAO(q, "lftj")
	}
	plan, err := core.NewPlan(q, db, "lftj", gao, nil, false, "", nil)
	if err != nil {
		t.Fatalf("compile %s: %v", q.Name, err)
	}
	return plan
}

// countIn counts plan's rows in r.
func countIn(t *testing.T, plan *core.Plan, r core.Range) int64 {
	t.Helper()
	n, err := Run(context.Background(), plan, plan.Pin(), r, nil, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", plan.Query.Name, err)
	}
	return n
}

// count counts q's rows under the planner's order.
func count(t *testing.T, q *query.Query, db *core.DB) int64 {
	t.Helper()
	return countIn(t, compile(t, q, db, nil), core.FullRange)
}

// enumerate runs q under the planner's order, emitting to emit.
func enumerate(t *testing.T, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	t.Helper()
	_, err := Run(context.Background(), compile(t, q, db, nil), db.Pin(), core.FullRange, nil, emit)
	return err
}

func TestTriangleOnK4(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	// K4 has C(4,3) = 4 triangles; the fwd orientation counts each once.
	if got := count(t, query.Clique(3), db); got != 4 {
		t.Errorf("triangles(K4) = %d, want 4", got)
	}
	// Exactly one 4-clique.
	if got := count(t, query.Clique(4), db); got != 1 {
		t.Errorf("4-cliques(K4) = %d, want 1", got)
	}
	// 4-cycles with a<b<c<d: orderings of {0,1,2,3} as a cycle with the
	// constraint — K4 contains cycles (0,1,2,3), (0,1,3,2)? The fwd encoding
	// requires a<b<c<d so candidates are only (0,1,2,3): edges 01,12,23,03
	// all present = 1; but also any 4-subset has 3 distinct cycles, only the
	// sorted one counts: 1.
	if got := count(t, query.Cycle(4), db); got != 1 {
		t.Errorf("4-cycles(K4) = %d, want 1", got)
	}
}

func TestPathOnSmallGraph(t *testing.T) {
	// Path graph 0-1-2-3 with samples selecting the endpoints.
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}}
	db := testutil.GraphDB(edges, map[string][]int64{
		query.Sample1: {0},
		query.Sample2: {3},
	})
	// 3-paths from 0 to 3: exactly one (0-1-2-3).
	if got := count(t, query.Path(3), db); got != 1 {
		t.Errorf("3-paths = %d, want 1", got)
	}
}

func TestEnumerateBindings(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	var got [][]int64
	err := enumerate(t, query.Clique(3), db, func(tu []int64) bool {
		got = append(got, append([]int64(nil), tu...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	sortTuples(got)
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Errorf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool { return relation.CompareTuples(ts[i], ts[j]) < 0 })
}

func TestEarlyStop(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	n := 0
	err := enumerate(t, query.Clique(3), db, func([]int64) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("enumerated %d tuples after early stop, want 2", n)
	}
}

// TestDifferentialVsNaive runs the full §5.1 query suite on random graphs and
// compares against the oracle.
func TestDifferentialVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(8)
		m := 2 + rng.Intn(20)
		db := testutil.RandomGraphDB(rng, n, m, 2)
		for _, q := range testutil.BenchmarkQueries() {
			want, err := naive.Count(context.Background(), q, db)
			if err != nil {
				t.Fatal(err)
			}
			got := count(t, q, db)
			if got != want {
				t.Errorf("trial %d %s: lftj = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

// TestGAOOverride checks counts are GAO-independent.
func TestGAOOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := testutil.RandomGraphDB(rng, 8, 16, 2)
	q := query.Path(3)
	want := count(t, q, db)
	for _, gao := range [][]string{
		{"a", "b", "c", "d"},
		{"d", "c", "b", "a"},
		{"b", "a", "d", "c"},
		{"a", "b", "d", "c"}, // the ordering §5.2.1 discusses for LFTJ
	} {
		if got := countIn(t, compile(t, q, db, gao), core.FullRange); got != want {
			t.Errorf("GAO %v: count = %d, want %d", gao, got, want)
		}
	}
}

// TestRangePartition checks that splitting the first variable's domain into
// ranges partitions the count (the §4.10 parallelization invariant).
func TestRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := testutil.RandomGraphDB(rng, 20, 60, 2)
	for _, q := range []*query.Query{query.Clique(3), query.Path(3), query.Comb()} {
		plan := compile(t, q, db, nil)
		want := countIn(t, plan, core.FullRange)
		var total int64
		cuts := []int64{relation.NegInf + 1, 5, 11, 16, relation.PosInf}
		for i := 0; i+1 < len(cuts); i++ {
			total += countIn(t, plan, core.Range{Lo: cuts[i], Hi: cuts[i+1]})
		}
		if total != want {
			t.Errorf("%s: partitioned total = %d, want %d", q.Name, total, want)
		}
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 200, 4000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, compile(t, query.Clique(4), db, nil), db.Pin(), core.FullRange, nil, nil); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

// TestCancellationSpanCount: a count that sizes its last level as a span
// (frame.countLeaf) still ticks once per prefix, so a cancelled context
// stops it with the context's error. The relation has 3/4·CheckEvery first
// keys, so the first level's own ticks never reach a context check; only
// with the span's ticks do they.
func TestCancellationSpanCount(t *testing.T) {
	b := relation.NewBuilder("r", 2)
	keys := int64(core.CheckEvery * 3 / 4)
	for a := int64(0); a < keys; a++ {
		b.Add(a, 1)
		b.Add(a, 2)
	}
	db := core.NewDB()
	db.Add(b.Build())
	plan := compile(t, mustParse("pairs", "r(a,b)"), db, []string{"a", "b"})
	if got := countIn(t, plan, core.FullRange); got != 2*keys {
		t.Fatalf("count = %d, want %d", got, 2*keys)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n, err := Run(ctx, plan, plan.Pin(), core.FullRange, nil, nil); !errors.Is(err, context.Canceled) || n != 0 {
		t.Errorf("cancelled span count = %d, %v; want 0, %v", n, err, context.Canceled)
	}
}

func TestEmptyJoin(t *testing.T) {
	// Graph with edges but empty sample: path count is 0.
	db := testutil.GraphDB(testutil.K4, map[string][]int64{
		query.Sample1: {99}, // disconnected from the graph
		query.Sample2: {0},
	})
	if got := count(t, query.Path(3), db); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}
