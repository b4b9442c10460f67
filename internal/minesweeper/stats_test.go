package minesweeper

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

// statsOf counts q's rows under opts and returns the count and the run's
// counters.
func statsOf(t *testing.T, q *query.Query, db *core.DB, opts Options) (int64, core.Stats) {
	t.Helper()
	var sc core.StatsCollector
	n, err := Run(context.Background(), compile(t, q, db, nil, opts), db.Pin(), opts, core.FullRange, &sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n, sc.Snapshot()
}

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := testutil.RandomGraphDB(rng, 20, 80, 2)
	q := query.Path(3)

	n1, with := statsOf(t, q, db, Options{})
	if with.Outputs != n1 {
		t.Errorf("Outputs = %d, want %d", with.Outputs, n1)
	}
	if with.Probes == 0 || with.Constraints == 0 || with.FreeTupleSteps == 0 {
		t.Errorf("zero activity counters: %+v", with)
	}
	if with.ProbeMemoHits == 0 {
		t.Errorf("Idea 4 memo never hit on a path query: %+v", with)
	}
	if with.MemoStores == 0 {
		t.Errorf("count-mode reuse never stored: %+v", with)
	}

	// Disabling Idea 4 must eliminate memo hits and issue at least as many
	// probes.
	n2, noMemo := statsOf(t, q, db, Options{DisableMemo: true})
	if n1 != n2 {
		t.Fatalf("counts differ: %d vs %d", n1, n2)
	}
	if noMemo.ProbeMemoHits != 0 {
		t.Errorf("DisableMemo but ProbeMemoHits = %d", noMemo.ProbeMemoHits)
	}
	if noMemo.Probes < with.Probes {
		t.Errorf("without the memo the engine should probe at least as much: %d < %d", noMemo.Probes, with.Probes)
	}

	// Disabling count reuse must eliminate reuse hits.
	if _, noReuse := statsOf(t, q, db, Options{DisableCountMemo: true}); noReuse.ReuseHits != 0 || noReuse.MemoStores != 0 {
		t.Errorf("DisableCountMemo but reuse counters = %+v", noReuse)
	}
}

func TestStatsAccumulateAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	db := testutil.RandomGraphDB(rng, 10, 30, 2)
	plan := compile(t, query.Clique(3), db, nil, Options{})
	var sc core.StatsCollector
	if _, err := Run(context.Background(), plan, plan.Pin(), Options{}, core.FullRange, &sc, nil); err != nil {
		t.Fatal(err)
	}
	first := sc.Snapshot()
	if _, err := Run(context.Background(), plan, plan.Pin(), Options{}, core.FullRange, &sc, nil); err != nil {
		t.Fatal(err)
	}
	if s := sc.Snapshot(); s.Probes <= first.Probes || s.FreeTupleSteps <= first.FreeTupleSteps {
		t.Errorf("stats should accumulate: first=%+v total=%+v", first, s)
	}
}
