package engine

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

// compile compiles q under opts.
func compile(t *testing.T, opts Options, q *query.Query, db *core.DB) *core.Plan {
	t.Helper()
	plan, err := Compile(opts, q, db)
	if err != nil {
		t.Fatalf("Compile(%s, %s): %v", opts.Algorithm, q.Name, err)
	}
	return plan
}

// oracle counts q's rows with the naive engine.
func oracle(t *testing.T, q *query.Query, db *core.DB) int64 {
	t.Helper()
	n, err := naive.Count(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRegistryAllAlgorithms(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	for _, a := range Algorithms() {
		if plan := compile(t, Options{Algorithm: a}, query.Clique(3), db); plan.Algorithm != string(a) {
			t.Errorf("%s: plan compiled for %q", a, plan.Algorithm)
		}
	}
	for _, name := range []Algorithm{"nope", "psql", "hybrid"} {
		if _, err := Compile(Options{Algorithm: name}, query.Clique(3), db); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("Compile(%q): %v, want ErrUnknownAlgorithm", name, err)
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
		want := oracle(t, q, db)
		for _, alg := range []Algorithm{LFTJ, MS} {
			for _, workers := range []int{1, 2, 4} {
				for _, f := range []int{0, 1, 3, 8} {
					opts := Options{Algorithm: alg, Workers: workers, Granularity: f}
					got, err := Run(context.Background(), compile(t, opts, q, db), nil, &opts, nil)
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
	want := oracle(t, q, db)
	for _, a := range Algorithms() {
		opts := Options{Algorithm: a, Workers: 2}
		got, err := Run(context.Background(), compile(t, opts, q, db), nil, &opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if got != want {
			t.Errorf("%s: got %d, want %d", a, got, want)
		}
	}
}

// TestSplitJobsCoverage pins the cut rule: n parts are contiguous, start at
// -1, end at +inf and hold equal shares of the level-0 keys; there are
// exactly n of them even with fewer keys (the surplus empty); the jobs split
// cuts the same bounds as the parts; and a huge part count neither
// overflows nor allocates more than a small one.
func TestSplitJobsCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 50, 200, 2)
	q := query.Clique(3)
	plan, err := Compile(Options{Algorithm: LFTJ}, q, db)
	if err != nil {
		t.Fatal(err)
	}
	whole := core.FullRange
	k := leadKeys(plan, plan.Pin())
	total, _ := k.count(whole)
	if total < 7 {
		t.Fatalf("only %d keys", total)
	}
	for _, n := range []uint64{1, 2, 7, total, total + 5} {
		prev := whole.Lo
		for i := uint64(0); i < n; i++ {
			part := k.cut(whole, i, n)
			if part.Lo != prev {
				t.Fatalf("n=%d: part %d starts at %d, previous ended at %d", n, i, part.Lo, prev)
			}
			keys, _ := k.count(part)
			if want := (i+1)*total/n - i*total/n; keys != want {
				t.Errorf("n=%d: part %d holds %d keys, want %d", n, i, keys, want)
			}
			prev = part.Hi
		}
		if prev != whole.Hi {
			t.Fatalf("n=%d: last part ends at %d, want %d", n, prev, whole.Hi)
		}
		jobs := k.split(whole, int(n))
		if n <= 1 || n > total {
			continue
		}
		if uint64(len(jobs)) != n {
			t.Fatalf("n=%d: %d jobs", n, len(jobs))
		}
		for i, j := range jobs {
			if part := k.cut(whole, uint64(i), n); j != part {
				t.Errorf("n=%d: job %d is %v, part %v", n, i, j, part)
			}
		}
	}
	if jobs := k.split(whole, 1<<40); uint64(len(jobs)) != total {
		t.Errorf("split into 2^40 made %d jobs, want one per key (%d)", len(jobs), total)
	}
	allocs := func(i, n uint64) float64 {
		return testing.AllocsPerRun(10, func() {
			if part := k.cut(whole, i, n); part.Lo > part.Hi || (i == n-1 && part.Hi != whole.Hi) {
				t.Errorf("part %d of %d is %v", i, n, part)
			}
		})
	}
	if few, many := allocs(1, 2), allocs(1<<63-1, 1<<63); many != few {
		t.Errorf("cutting one of 2^63 parts allocated %v times, one of 2 parts %v", many, few)
	}
}

func TestParallelEnumerateSequentialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 10, 30, 2)
	opts := Options{Algorithm: MS, Workers: 4}
	n := 0
	if _, err := Run(context.Background(), compile(t, opts, query.Clique(3), db), nil, &opts, func([]int64) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := oracle(t, query.Clique(3), db); int64(n) != want {
		t.Errorf("enumerated %d, want %d", n, want)
	}
}

func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 200, 5000, 2)
	opts := Options{Algorithm: LFTJ, Workers: 4}
	plan := compile(t, opts, query.Clique(4), db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, plan, nil, &opts, nil); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestGAOOverridePropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := testutil.RandomGraphDB(rng, 15, 60, 2)
	q := query.Path(3)
	want := oracle(t, q, db)
	for _, alg := range []Algorithm{LFTJ, MS} {
		opts := Options{Algorithm: alg, GAO: []string{"d", "c", "b", "a"}, Workers: 2}
		got, err := Run(context.Background(), compile(t, opts, q, db), nil, &opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got != want {
			t.Errorf("%s with GAO override: got %d, want %d", alg, got, want)
		}
	}
}
