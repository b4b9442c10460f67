//go:build !race

package lftj

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// TestLFTJExecAllocs is the allocation gate of a planned LFTJ execution:
// the objects one Count of a compiled plan allocates, whatever the number
// of seeks it makes. An engine change that allocates more per execution
// than a bound fails here even when no clock can see it. Each bound is the
// measured count plus 2: an execution takes its whole state from a pooled
// frame, so the count is 0 for all three on go1.24. The test logs the
// counts. The race detector changes allocation counts, hence the build tag.
func TestLFTJExecAllocs(t *testing.T) {
	db := dataset.DB(dataset.Generate(dataset.HolmeKim, 1000, 5500, 107), 8, 107)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		q    *query.Query
		max  float64
	}{
		{"triangle", query.Clique(3), 2},
		{"clique4", query.Clique(4), 2},
		{"pinned", mustParse("pinned", "out(b,c) :- edge(a,b), edge(b,c), a = 7"), 2},
	} {
		eng := Engine{Opts: Options{Plan: compile(t, tc.q, db, nil)}}
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
