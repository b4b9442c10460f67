//go:build !race

package minesweeper

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
)

// TestMinesweeperSteadyStateAllocs is the allocation gate of the execution
// frame: once a compiled plan has run twice, so that a pooled frame has grown
// to the query's size, another Count or Enumerate allocates a handful of
// objects however many probes, constraints and CDS nodes the run goes
// through. The race detector changes allocation counts, hence the build tag.
func TestMinesweeperSteadyStateAllocs(t *testing.T) {
	db := dataset.DB(dataset.Generate(dataset.HolmeKim, 1000, 5500, 107), 8, 107)
	q := query.Path(3)
	plan := compile(t, q, db, nil, Options{})
	ctx := context.Background()
	var sc core.StatsCollector
	if _, err := Run(ctx, plan, plan.Pin(), Options{}, core.FullRange, &sc, nil); err != nil {
		t.Fatal(err)
	}
	stats := sc.Snapshot()
	if stats.Constraints < 1000 || stats.Outputs == 0 {
		t.Fatalf("the instance is too small to gate anything: %+v", stats)
	}
	runs := map[string]func(){
		"Count": func() {
			if _, err := Run(ctx, plan, plan.Pin(), Options{}, core.FullRange, nil, nil); err != nil {
				t.Fatal(err)
			}
		},
		"Enumerate": func() {
			if _, err := Run(ctx, plan, plan.Pin(), Options{}, core.FullRange, nil, func([]int64) bool { return true }); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range runs {
		run()
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs > 16 {
			t.Errorf("%s allocates %.1f objects per steady-state execution, want <= 16 (%d constraints inserted)", name, allocs, stats.Constraints)
		} else {
			t.Logf("%s: %.1f allocs per execution, %d constraints inserted", name, allocs, stats.Constraints)
		}
		// Two collections empty a sync.Pool. A sequential stream of
		// executions must get its frame back all the same (hotFrame), or
		// its allocation rate depends on the collector's cadence.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if allocs := after.Mallocs - before.Mallocs; allocs > 16 {
			t.Errorf("%s allocates %d objects on the first execution after two collections, want <= 16: the frame was dropped", name, allocs)
		}
	}
}
