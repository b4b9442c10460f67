//go:build !race

package lftj

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
)

// TestLFTJExecAllocs is the allocation gate of a planned LFTJ execution:
// the objects one Count of a compiled plan allocates, whatever the number
// of seeks it makes. An engine change that allocates more per execution
// than a bound fails here even when no clock can see it. Each bound is the
// measured count plus 2: an execution takes its whole state from a pooled
// frame, so the count is 0 for every row on go1.24. range2hop and merged
// count their last level as a span (frame.countLeaf), merged over a leaf
// whose node holds base keys, a tombstone and an insert, as a Count right
// after a write reads it. The test logs the counts. The race detector
// changes allocation counts, hence the build tag.
func TestLFTJExecAllocs(t *testing.T) {
	db := dataset.DB(dataset.Generate(dataset.HolmeKim, 1000, 5500, 107), 8, 107)
	ctx := context.Background()
	merged := mustParse("merged", "out(a,b) :- edge(a,b), a = 7")
	mergedPlan := compile(t, merged, db, nil)
	edges, err := db.Relation(query.Edge)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := edges.PrefixRange([]int64{7})
	if err := db.ApplyDelta(query.Edge, [][]int64{{7, 5000}}, [][]int64{edges.Tuple(lo)}); err != nil {
		t.Fatal(err)
	}
	if mergedPlan.Pin().Overlay(mergedPlan.Atoms[0].Index).LogLen() == 0 {
		t.Fatal("the write left no live log under the merged plan")
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		plan *core.Plan // nil: compile q
		max  float64
	}{
		{"triangle", query.Clique(3), nil, 2},
		{"clique4", query.Clique(4), nil, 2},
		{"pinned", mustParse("pinned", "out(b,c) :- edge(a,b), edge(b,c), a = 7"), nil, 2},
		{"range2hop", mustParse("range2hop", "out(a,b,c) :- edge(a,b), edge(b,c), a >= 100, a < 110"), nil, 2},
		{"merged", merged, mergedPlan, 2},
	} {
		if tc.plan == nil {
			tc.plan = compile(t, tc.q, db, nil)
		}
		eng := Engine{Opts: Options{Plan: tc.plan}}
		var n int64
		run := func() {
			var err error
			if n, err = eng.Count(ctx, tc.q, db); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n == 0 {
			t.Fatalf("%s: no results, the gate measures nothing", tc.name)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs > tc.max {
			t.Errorf("%s allocates %.0f objects per execution, want <= %.0f", tc.name, allocs, tc.max)
		} else {
			t.Logf("%s: %.0f allocs per execution (gate %.0f), %d results", tc.name, allocs, tc.max, n)
		}
	}
}
