package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/lftj"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestRegistryAllAlgorithms(t *testing.T) {
	for _, a := range Algorithms() {
		e, err := New(Options{Algorithm: a})
		if err != nil {
			t.Errorf("New(%s): %v", a, err)
			continue
		}
		if e.Name() == "" {
			t.Errorf("%s: empty name", a)
		}
	}
	for _, name := range []Algorithm{"nope", "psql", "hybrid"} {
		if _, err := New(Options{Algorithm: name}); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("New(%q): %v, want ErrUnknownAlgorithm", name, err)
		}
	}
	if got := Algorithms(); len(got) != 2 || got[0] != LFTJ || got[1] != MS {
		t.Errorf("Algorithms() = %v, want [lftj ms]", got)
	}
}

// TestParallelMatchesSequential: the §4.10 partitioning must not change
// counts, for either parallel engine, across worker counts and granularity.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := testutil.RandomGraphDB(rng, 40, 300, 2)
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Path(3), query.Comb(), query.Cycle(4)}
	for _, q := range queries {
		want, err := (lftj.Engine{}).Count(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			for _, workers := range []int{1, 2, 4} {
				for _, f := range []int{0, 1, 3, 8} {
					e, err := New(Options{Algorithm: alg, Workers: workers, Granularity: f})
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Count(context.Background(), q, db)
					if err != nil {
						t.Fatalf("%s %s w=%d f=%d: %v", alg, q.Name, workers, f, err)
					}
					if got != want {
						t.Errorf("%s %s w=%d f=%d: got %d, want %d", alg, q.Name, workers, f, got, want)
					}
				}
			}
		}
	}
}

func TestAllEnginesAgreeOnTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := testutil.RandomGraphDB(rng, 30, 200, 2)
	q := query.Clique(3)
	want, err := (lftj.Engine{}).Count(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Algorithms() {
		e, err := New(Options{Algorithm: a, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Count(context.Background(), q, db)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if got != want {
			t.Errorf("%s: got %d, want %d", a, got, want)
		}
	}
}

func TestSplitJobsCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 50, 200, 2)
	q := query.Clique(3)
	plan, err := compile(Options{Algorithm: LFTJ}, q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs := splitJobs(q, plan, plan.Pin(), 7)
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	if jobs[0][0] != -1 {
		t.Errorf("first job starts at %d, want -1", jobs[0][0])
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i][0] != jobs[i-1][1] {
			t.Errorf("job %d not contiguous: %v after %v", i, jobs[i], jobs[i-1])
		}
	}
}

func TestParallelEnumerateSequentialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 10, 30, 2)
	e, err := New(Options{Algorithm: MS, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := e.Enumerate(context.Background(), query.Clique(3), db, func([]int64) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want, _ := (lftj.Engine{}).Count(context.Background(), query.Clique(3), db)
	if int64(n) != want {
		t.Errorf("enumerated %d, want %d", n, want)
	}
}

func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 200, 5000, 2)
	e, err := New(Options{Algorithm: LFTJ, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Count(ctx, query.Clique(4), db); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestGAOOverridePropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := testutil.RandomGraphDB(rng, 15, 60, 2)
	q := query.Path(3)
	want, _ := (lftj.Engine{}).Count(context.Background(), q, db)
	for _, alg := range []Algorithm{LFTJ, MS} {
		e, err := New(Options{Algorithm: alg, GAO: []string{"d", "c", "b", "a"}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Count(context.Background(), q, db)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got != want {
			t.Errorf("%s with GAO override: got %d, want %d", alg, got, want)
		}
	}
}
