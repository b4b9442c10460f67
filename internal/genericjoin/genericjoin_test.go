package genericjoin

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

func TestTriangleOnK4(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	if got := count(t, Engine{}.Count, query.Clique(3), db); got != 4 {
		t.Errorf("triangles(K4) = %d, want 4", got)
	}
	if got := count(t, Engine{}.Count, query.Clique(4), db); got != 1 {
		t.Errorf("4-cliques(K4) = %d, want 1", got)
	}
}

func TestDifferentialVsLFTJ(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		db := testutil.RandomGraphDB(rng, 4+rng.Intn(10), 2+rng.Intn(25), 2)
		for _, q := range testutil.BenchmarkQueries() {
			want := count(t, naive.Count, q, db)
			if got := count(t, Engine{}.Count, q, db); got != want {
				t.Errorf("trial %d %s: genericjoin = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

func TestGAOOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := testutil.RandomGraphDB(rng, 10, 30, 2)
	q := query.Path(3)
	want := count(t, Engine{}.Count, q, db)
	if got := count(t, Engine{GAO: []string{"d", "c", "b", "a"}}.Count, q, db); got != want {
		t.Errorf("reversed GAO: %d, want %d", got, want)
	}
	e := Engine{GAO: []string{"a"}}
	if _, err := e.Count(context.Background(), q, db); err == nil {
		t.Error("short GAO should fail")
	}
}

func TestEarlyStop(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	n := 0
	if err := (Engine{}).Enumerate(context.Background(), query.Clique(3), db, func([]int64) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("early stop enumerated %d", n)
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 150, 3000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Engine{}).Count(ctx, query.Clique(4), db); err == nil {
		t.Error("cancelled context should error")
	}
}
