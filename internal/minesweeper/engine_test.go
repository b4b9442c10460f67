package minesweeper

import (
	"context"
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

// compile builds the plan the engine package compiles for q under opts: the
// order gao, or the planner's when gao is nil, the β-acyclicity verdict
// and Skeleton's split.
func compile(t testing.TB, q *query.Query, db *core.DB, gao []string, opts Options) *core.Plan {
	t.Helper()
	if gao == nil {
		gao, _ = hypergraph.ChooseGAO(q, "ms")
	}
	betaCyclic := !hypergraph.BetaAcyclic(q.Atoms)
	inSkel := Skeleton(q, gao, betaCyclic, opts.DisableSkeleton)
	plan, err := core.NewPlan(q, db, "ms", gao, inSkel, betaCyclic, "", nil)
	if err != nil {
		t.Fatalf("compile %s: %v", q.Name, err)
	}
	return plan
}

// countIn counts plan's rows in r under opts.
func countIn(t *testing.T, plan *core.Plan, opts Options, r core.Range) int64 {
	t.Helper()
	n, err := Run(context.Background(), plan, plan.Pin(), opts, r, nil, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", plan.Query.Name, err)
	}
	return n
}

// countOpts counts q's rows under the planner's order and opts.
func countOpts(t *testing.T, q *query.Query, db *core.DB, opts Options) int64 {
	t.Helper()
	return countIn(t, compile(t, q, db, nil, opts), opts, core.FullRange)
}

func count(t *testing.T, q *query.Query, db *core.DB) int64 {
	t.Helper()
	return countOpts(t, q, db, Options{})
}

// oracle counts q's rows with the naive engine.
func oracle(t *testing.T, q *query.Query, db *core.DB) int64 {
	t.Helper()
	n, err := naive.Count(context.Background(), q, db)
	if err != nil {
		t.Fatalf("naive Count(%s): %v", q.Name, err)
	}
	return n
}

// enumerate runs q under the planner's order, emitting to emit.
func enumerate(t *testing.T, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	t.Helper()
	_, err := Run(context.Background(), compile(t, q, db, nil, Options{}), db.Pin(), Options{}, core.FullRange, nil, emit)
	return err
}

func TestTriangleOnK4(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	if got := count(t, query.Clique(3), db); got != 4 {
		t.Errorf("triangles(K4) = %d, want 4", got)
	}
	if got := count(t, query.Clique(4), db); got != 1 {
		t.Errorf("4-cliques(K4) = %d, want 1", got)
	}
	if got := count(t, query.Cycle(4), db); got != 1 {
		t.Errorf("4-cycles(K4) = %d, want 1", got)
	}
}

func TestPathCount(t *testing.T) {
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}}
	db := testutil.GraphDB(edges, map[string][]int64{
		query.Sample1: {0},
		query.Sample2: {3},
	})
	if got := count(t, query.Path(3), db); got != 1 {
		t.Errorf("3-paths = %d, want 1", got)
	}
}

func TestEnumerateMatchesLFTJ(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := testutil.RandomGraphDB(rng, 10, 25, 2)
	for _, q := range []*query.Query{query.Clique(3), query.Path(3), query.Comb(), query.Tree(1)} {
		var want, got [][]int64
		if err := naive.Enumerate(context.Background(), q, db, collector(&want)); err != nil {
			t.Fatal(err)
		}
		if err := enumerate(t, q, db, collector(&got)); err != nil {
			t.Fatal(err)
		}
		sortTuples(want)
		sortTuples(got)
		if len(want) != len(got) {
			t.Fatalf("%s: ms enumerated %d, naive %d", q.Name, len(got), len(want))
		}
		for i := range want {
			if relation.CompareTuples(want[i], got[i]) != 0 {
				t.Fatalf("%s: tuple %d = %v, want %v", q.Name, i, got[i], want[i])
			}
		}
	}
}

func collector(out *[][]int64) func([]int64) bool {
	return func(tu []int64) bool {
		*out = append(*out, append([]int64(nil), tu...))
		return true
	}
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool { return relation.CompareTuples(ts[i], ts[j]) < 0 })
}

// TestDifferentialVsNaive is the main correctness net: every §5.1 query, all
// idea-toggle combinations, random graphs.
func TestDifferentialVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	variants := []Options{
		{},
		{DisableMemo: true},
		{DisableSkeleton: true},
		{DisableCountMemo: true},
		{DisableMemo: true, DisableSkeleton: true, DisableCountMemo: true},
	}
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(8)
		m := 2 + rng.Intn(20)
		db := testutil.RandomGraphDB(rng, n, m, 2)
		for _, q := range testutil.BenchmarkQueries() {
			want := oracle(t, q, db)
			for vi, opts := range variants {
				if got := countOpts(t, q, db, opts); got != want {
					t.Errorf("trial %d %s variant %d: ms = %d, naive = %d", trial, q.Name, vi, got, want)
				}
			}
		}
	}
}

// TestDifferentialDenser stresses larger random instances against the oracle.
func TestDifferentialDenser(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 4; trial++ {
		db := testutil.RandomGraphDB(rng, 30, 150, 3)
		for _, q := range testutil.BenchmarkQueries() {
			want := oracle(t, q, db)
			if got := count(t, q, db); got != want {
				t.Errorf("trial %d %s: ms = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

// TestTable4GAOCounts: Minesweeper must return identical counts under every
// Table 4 attribute order, NEO or not.
func TestTable4GAOCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := testutil.RandomGraphDB(rng, 12, 40, 2)
	q := query.Path(4)
	want := oracle(t, q, db)
	for _, gao := range []string{"abcde", "bacde", "bcade", "cbade", "cbdae", "abdce", "badce"} {
		if got := countIn(t, compile(t, q, db, splitLetters(gao), Options{}), Options{}, core.FullRange); got != want {
			t.Errorf("GAO %s: ms = %d, want %d", gao, got, want)
		}
	}
}

func splitLetters(s string) []string {
	out := make([]string, len(s))
	for i, r := range s {
		out[i] = string(r)
	}
	return out
}

func TestRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := testutil.RandomGraphDB(rng, 20, 60, 2)
	for _, q := range []*query.Query{query.Clique(3), query.Path(3), query.Comb()} {
		plan := compile(t, q, db, nil, Options{})
		want := countIn(t, plan, Options{}, core.FullRange)
		var total int64
		cuts := []int64{-1, 5, 11, 16, posInf}
		for i := 0; i+1 < len(cuts); i++ {
			total += countIn(t, plan, Options{}, core.Range{Lo: cuts[i], Hi: cuts[i+1]})
		}
		if total != want {
			t.Errorf("%s: partitioned total = %d, want %d", q.Name, total, want)
		}
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 150, 3000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, compile(t, query.Clique(4), db, nil, Options{}), db.Pin(), Options{}, core.FullRange, nil, nil); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestEarlyStopEnumerate(t *testing.T) {
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

// TestCountMemoEquivalence: count-mode subtree reuse must agree with plain
// enumeration counting on instances engineered for heavy reuse (large shared
// suffixes — the Figures 3–5 regime).
func TestCountMemoEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		db := testutil.RandomGraphDB(rng, 15, 60, 1) // selectivity 1: everything sampled
		for _, q := range []*query.Query{query.Path(3), query.Path(4), query.Tree(2), query.Comb()} {
			plain := countOpts(t, q, db, Options{DisableCountMemo: true})
			memo := count(t, q, db)
			if plain != memo {
				t.Errorf("trial %d %s: memo count = %d, plain = %d", trial, q.Name, memo, plain)
			}
		}
	}
}

func TestSelfJoinHeavySuffixReuse(t *testing.T) {
	// A long path graph: many (a,b) pairs share the same c suffix counts.
	var edges [][2]int64
	for i := int64(0); i < 50; i++ {
		edges = append(edges, [2]int64{i, i + 1})
	}
	var all []int64
	for i := int64(0); i <= 50; i++ {
		all = append(all, i)
	}
	db := testutil.GraphDB(edges, map[string][]int64{query.Sample1: all, query.Sample2: all})
	q := query.Path(4)
	want := oracle(t, q, db)
	if got := count(t, q, db); got != want {
		t.Errorf("path graph 4-path: ms = %d, naive = %d", got, want)
	}
}
