//go:build !race

package lftj

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestSeeksLimitBoundsSteps: an order whose levels walk keys by next and
// size the last one by a span makes no seeks, so only the step bound stops
// it. Under a b c d, edge(a,b), edge(c,d) over the benchmark graph walks
// all 5 242 sources of edge once per each of its 75 618 rows and sizes a
// span at each; Seeks must give up within core.TicksPerSeek steps per seek
// of its limit and report a count past the limit, where a bound on seeks
// alone ran for minutes. The bound is a time, hence the build tag: the race
// detector slows the walk about twentyfold.
func TestSeeksLimitBoundsSteps(t *testing.T) {
	db := dataset.DB(dataset.Generate(dataset.HolmeKim, 5242, 28980, 107), 80, 107)
	plan := compile(t, mustParse("cross", "edge(a,b), edge(c,d)"), db, []string{"a", "b", "c", "d"})
	const limit = 1 << 19
	start := time.Now()
	sk := NewSeeker(plan, plan.Pin())
	defer sk.Close()
	n, err := sk.Seeks(core.FullRange, limit)
	took := time.Since(start)
	if err != nil || n <= limit {
		t.Fatalf("Seeks = %d, %v; want a count past %d", n, err, limit)
	}
	if took > time.Second {
		t.Errorf("Seeks gave up after %v, want under a second", took)
	}
}
