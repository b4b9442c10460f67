package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestBaselinesDifferential checks every baseline's count against the
// brute-force oracle on the query shapes it supports, on two random graphs.
func TestBaselinesDifferential(t *testing.T) {
	ctx := context.Background()
	general := []*query.Query{query.Clique(3), query.Clique(4), query.Cycle(4), query.Path(3)}
	cases := []struct {
		alg     engine.Algorithm
		queries []*query.Query
	}{
		{PSQL, general},
		{MonetDB, general},
		{GenericJoin, general},
		{GraphLab, []*query.Query{query.Clique(3), query.Clique(4)}},
		{Yannakakis, []*query.Query{query.Path(3), query.Comb()}},
		{Hybrid, []*query.Query{query.Lollipop(2), query.Lollipop(3)}},
	}
	for _, seed := range []int64{3, 11} {
		db := testutil.RandomGraphDB(rand.New(rand.NewSource(seed)), 40, 220, 3)
		for _, c := range cases {
			for _, q := range c.queries {
				t.Run(fmt.Sprintf("seed=%d/%s/%s", seed, q.Name, c.alg), func(t *testing.T) {
					want, err := naive.Count(ctx, q, db)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := prepare(engine.Options{Algorithm: c.alg, Workers: 2}, q, db)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.Count(ctx, q, db)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("count %d, oracle %d", got, want)
					}
				})
			}
		}
	}
}

// TestBaselinesRejectExtended pins the gate: the baselines join whole atoms,
// so an extended query (projection, predicates, aggregates) fails instead of
// silently returning the plain join's count. Names outside the registry fail
// with engine.ErrUnknownAlgorithm.
func TestBaselinesRejectExtended(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	q, err := query.Parse("q", "out(a) :- edge(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []engine.Algorithm{Hybrid, PSQL, MonetDB, Yannakakis, GraphLab, GenericJoin} {
		if _, err := prepare(engine.Options{Algorithm: alg}, q, db); !errors.Is(err, errPlainJoinsOnly) {
			t.Errorf("%s: extended query gave %v, want errPlainJoinsOnly", alg, err)
		}
		if _, err := prepare(engine.Options{Algorithm: alg}, query.Clique(3), db); err != nil {
			t.Errorf("%s: plain query: %v", alg, err)
		}
	}
	if _, err := prepare(engine.Options{Algorithm: "nope"}, query.Clique(3), db); !errors.Is(err, engine.ErrUnknownAlgorithm) {
		t.Errorf("unknown name: %v, want ErrUnknownAlgorithm", err)
	}
}
