package yannakakis

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/testutil"
)

func count(t *testing.T, run func(context.Context, *query.Query, *core.DB) (int64, error), q *query.Query, db *core.DB) int64 {
	t.Helper()
	n, err := run(context.Background(), q, db)
	if err != nil {
		t.Fatalf("Count(%s): %v", q.Name, err)
	}
	return n
}

func TestPathOnSmallGraph(t *testing.T) {
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}}
	db := testutil.GraphDB(edges, map[string][]int64{
		query.Sample1: {0},
		query.Sample2: {3},
	})
	if got := count(t, Engine{}.Count, query.Path(3), db); got != 1 {
		t.Errorf("3-paths = %d, want 1", got)
	}
}

func TestDifferentialAcyclicQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	acyclic := []*query.Query{
		query.Path(3), query.Path(4), query.Tree(1), query.Tree(2), query.Comb(),
	}
	for trial := 0; trial < 8; trial++ {
		db := testutil.RandomGraphDB(rng, 4+rng.Intn(10), 2+rng.Intn(30), 2)
		for _, q := range acyclic {
			want := count(t, naive.Count, q, db)
			if got := count(t, Engine{}.Count, q, db); got != want {
				t.Errorf("trial %d %s: yannakakis = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

func TestCyclicRejected(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	if _, err := (Engine{}).Count(context.Background(), query.Clique(3), db); err == nil {
		t.Error("cyclic query should be rejected")
	}
}

func TestEmptySampleKillsEverything(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, map[string][]int64{
		query.Sample1: {77}, // not in the graph
		query.Sample2: {0},
	})
	if got := count(t, Engine{}.Count, query.Path(3), db); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := testutil.RandomGraphDB(rng, 200, 5000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Engine{}).Count(ctx, query.Path(4), db); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestMissingRelation(t *testing.T) {
	db := core.NewDB()
	if _, err := (Engine{}).Count(context.Background(), query.Path(3), db); err == nil {
		t.Error("missing relation should error")
	}
}
