package pairwise

import (
	"context"
	"errors"
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
	for _, fl := range []Flavor{DP, Greedy} {
		if got := count(t, Engine{Opts: Options{Flavor: fl}}.Count, query.Clique(3), db); got != 4 {
			t.Errorf("flavor %d: triangles(K4) = %d, want 4", fl, got)
		}
	}
}

func TestDifferentialVsLFTJ(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		db := testutil.RandomGraphDB(rng, 4+rng.Intn(8), 2+rng.Intn(20), 2)
		for _, q := range testutil.BenchmarkQueries() {
			want := count(t, naive.Count, q, db)
			for _, fl := range []Flavor{DP, Greedy} {
				if got := count(t, Engine{Opts: Options{Flavor: fl}}.Count, q, db); got != want {
					t.Errorf("trial %d %s flavor %d: pairwise = %d, naive = %d", trial, q.Name, fl, got, want)
				}
			}
		}
	}
}

func TestMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := testutil.RandomGraphDB(rng, 50, 600, 2)
	e := Engine{Opts: Options{MaxRows: 100}}
	_, err := e.Count(context.Background(), query.Clique(4), db)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Errorf("err = %v, want ErrMemoryExceeded", err)
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := testutil.RandomGraphDB(rng, 150, 4000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Engine{}).Count(ctx, query.Clique(4), db); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestSingleAtom(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	q := query.New("edges", query.Atom{Rel: query.Fwd, Vars: []string{"a", "b"}})
	if got := count(t, Engine{}.Count, q, db); got != 6 {
		t.Errorf("single atom count = %d, want 6", got)
	}
}

func TestEstimatorSanity(t *testing.T) {
	// Join of R(a,b) with S(b,c), both 100 rows, 10 distinct b on each side:
	// estimate 100*100/10 = 1000.
	l := stat{card: 100, distinct: map[string]float64{"a": 100, "b": 10}}
	r := stat{card: 100, distinct: map[string]float64{"b": 10, "c": 100}}
	est := estJoin(l, r)
	if est.card != 1000 {
		t.Errorf("estJoin card = %v, want 1000", est.card)
	}
	if est.distinct["b"] != 10 {
		t.Errorf("shared distinct = %v, want 10", est.distinct["b"])
	}
}

// TestDPPrefersSampleFirst3Path: the §5.2.1 observation — for 3-path with
// small samples, a good pairwise plan starts from the samples rather than
// self-joining the edge relation. The DP optimizer must not begin with an
// edge-edge join.
func TestDPPrefersSampleFirst3Path(t *testing.T) {
	q := query.Path(3)
	// Samples tiny, edges huge.
	stats := []stat{
		{card: 5, distinct: map[string]float64{"a": 5}},
		{card: 5, distinct: map[string]float64{"d": 5}},
		{card: 1e6, distinct: map[string]float64{"a": 1e4, "b": 1e4}},
		{card: 1e6, distinct: map[string]float64{"b": 1e4, "c": 1e4}},
		{card: 1e6, distinct: map[string]float64{"c": 1e4, "d": 1e4}},
	}
	order := dpOrder(stats)
	if order[0] != 0 && order[0] != 1 {
		t.Errorf("DP starts with atom %d (%s), want a sample atom", order[0], q.Atoms[order[0]])
	}
}

func TestMissingRelation(t *testing.T) {
	db := core.NewDB()
	if _, err := (Engine{}).Count(context.Background(), query.Clique(3), db); err == nil {
		t.Error("missing relation should error")
	}
}
