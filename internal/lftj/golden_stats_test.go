package lftj

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

// goldenQueries are the benchmark's LFTJ shapes: the four whose own variable
// order is cross-join-free, which the planner must leave alone, and the two
// it reorders.
var goldenQueries = []struct{ name, src string }{
	{"triangle", "fwd(a,b), fwd(b,c), fwd(a,c)"},
	{"clique4", "fwd(a,b), fwd(a,c), fwd(a,d), fwd(b,c), fwd(b,d), fwd(c,d)"},
	{"point", "out(a,b,c) :- edge(a,b), edge(b,c), a = 5"},
	{"range2hop", "out(a,b,c) :- edge(a,b), edge(b,c), a >= 10, a < 20"},
	{"pinned_projected", "edge(5,b), edge(b,c)"},
	{"groupby", "agg(a, count(c)) :- v1(a), edge(a,b), edge(b,c)"},
}

// goldenStats pins the engine's work on a seeded 120-vertex, 700-edge random
// graph: Seeks and Outputs per query, in goldenQueries order. The first four
// rows were recorded at the commit before the GAO planner, under q.Vars() —
// the planner keeps those orders, so they repeat exactly. pinned_projected
// (629 seeks for its 149 rows under b < c < $1) and groupby (11 994 for its
// 1 205 under a < c < b) now run under the planner's $1 < b < c and
// a < b < c: pinned_projected costs exactly what point does, groupby a
// seek per join-variable binding. This is the baseline any rewrite of the
// engine's inner loop is held to.
var goldenStats = [][2]int64{
	{3185, 222},
	{5799, 9},
	{15, 149},
	{101, 1212},
	{15, 149},
	{182, 1205},
}

func TestStatsGolden(t *testing.T) {
	db := testutil.RandomGraphDB(rand.New(rand.NewSource(7)), 120, 700, 10)
	for i, g := range goldenQueries {
		q := mustParse(g.name, g.src)
		var sc core.StatsCollector
		var rows int64
		_, err := Run(context.Background(), compile(t, q, db, nil), db.Pin(), core.FullRange, &sc, func([]int64) bool { rows++; return true })
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		st := sc.Snapshot()
		if rows != st.Outputs {
			t.Errorf("%s: %d rows emitted, Outputs = %d", g.name, rows, st.Outputs)
		}
		if got := [2]int64{st.Seeks, st.Outputs}; got != goldenStats[i] {
			t.Errorf("%s: {Seeks, Outputs} = %v, golden %v", g.name, got, goldenStats[i])
		}
		// Count mode (a nil emit) makes the same seeks.
		var cc core.StatsCollector
		n, err := Run(context.Background(), compile(t, q, db, nil), db.Pin(), core.FullRange, &cc, nil)
		if err != nil {
			t.Fatalf("%s count: %v", g.name, err)
		}
		if got := [2]int64{cc.Snapshot().Seeks, n}; got != goldenStats[i] {
			t.Errorf("%s count mode: {Seeks, rows} = %v, golden %v", g.name, got, goldenStats[i])
		}
	}
}

// mustParse is query.Parse that panics on error, for statically known
// queries.
func mustParse(name, src string) *query.Query {
	q, err := query.Parse(name, src)
	if err != nil {
		panic(err)
	}
	return q
}
