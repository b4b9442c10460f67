package minesweeper_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestLeafMessagesWorkers: a count split into §4.10 jobs on four workers,
// each job a leaf-message count of its range of the first variable, and a
// count of each of three parts add up to the naive oracle's count.
func TestLeafMessagesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	leafOnly, err := query.Parse("leafonly", "edge(a,b), v2(b)")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		db := testutil.RandomGraphDB(rng, 10+rng.Intn(30), 20+rng.Intn(80), 1+rng.Intn(3))
		for _, q := range []*query.Query{query.Path(3), query.Path(4), query.Tree(1), query.Comb(), leafOnly} {
			want, err := naive.Count(ctx, q, db)
			if err != nil {
				t.Fatal(err)
			}
			opts := engine.Options{Algorithm: engine.MS, Workers: 4}
			plan, err := engine.Compile(opts, q, db)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := engine.Run(ctx, plan, nil, &opts, nil); err != nil || n != want {
				t.Errorf("trial %d %s: Workers 4 count %d (%v), naive %d", trial, q.Name, n, err, want)
			}
			var sum int64
			for part := uint64(0); part < 3; part++ {
				opts := engine.Options{Algorithm: engine.MS, Workers: 2, Part: &engine.Part{Part: part, Of: 3}}
				n, err := engine.Run(ctx, plan, nil, &opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				sum += n
			}
			if sum != want {
				t.Errorf("trial %d %s: three parts count %d, naive %d", trial, q.Name, sum, want)
			}
		}
	}
}
