package recursive

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestTransitiveClosurePath(t *testing.T) {
	// Undirected path 0-1-2-3: the symmetric edge relation makes every pair
	// mutually reachable: tc = 4x4 pairs including self-loops via cycles.
	db := testutil.GraphDB([][2]int64{{0, 1}, {1, 2}, {2, 3}}, nil)
	tc, err := TransitiveClosure(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Len() != 16 {
		t.Errorf("tc size = %d, want 16 (all pairs incl. self via back-and-forth)", tc.Len())
	}
}

func TestReachableDisconnected(t *testing.T) {
	db := testutil.GraphDB([][2]int64{{0, 1}, {5, 6}}, nil)
	n, err := Reachable(context.Background(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	// From 0: reach 1 and 0 (via 0-1-0).
	if n != 2 {
		t.Errorf("reachable(0) = %d, want 2", n)
	}
	if n, _ := Reachable(context.Background(), db, 5); n != 2 {
		t.Errorf("reachable(5) = %d, want 2", n)
	}
}

// TestTCMatchesIterativeJoin: tc must be the fixpoint of pairwise
// composition (checked by composing tc with edge once more: no new pairs).
func TestTCFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := testutil.RandomGraphDB(rng, 15, 25, 1)
	ctx := context.Background()
	if err := RegisterTC(ctx, db); err != nil {
		t.Fatal(err)
	}
	tc, err := db.Relation("tc")
	if err != nil {
		t.Fatal(err)
	}
	// Compose: tc(x,z), edge(z,y) must be a subset of tc.
	comp := query.New("comp",
		query.Atom{Rel: "tc", Vars: []string{"x", "z"}},
		query.Atom{Rel: query.Edge, Vars: []string{"z", "y"}},
	)
	err = (naive.Engine{}).Enumerate(ctx, comp, db, func(tu []int64) bool {
		if !tc.Contains([]int64{tu[0], tu[2]}) {
			t.Errorf("pair (%d,%d) derivable but missing from tc", tu[0], tu[2])
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCQueryableByEngines: the materialized closure participates in
// ordinary pattern queries (the §6 "recursive queries" benchmark shape).
func TestTCQueryableByEngines(t *testing.T) {
	db := testutil.GraphDB([][2]int64{{0, 1}, {1, 2}}, map[string][]int64{
		query.Sample1: {0},
		query.Sample2: {2},
	})
	ctx := context.Background()
	if err := RegisterTC(ctx, db); err != nil {
		t.Fatal(err)
	}
	q := query.New("reach",
		query.Atom{Rel: query.Sample1, Vars: []string{"a"}},
		query.Atom{Rel: "tc", Vars: []string{"a", "b"}},
		query.Atom{Rel: query.Sample2, Vars: []string{"b"}},
	)
	n, err := (naive.Engine{}).Count(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reach count = %d, want 1 (0 reaches 2)", n)
	}
}

func TestMissingEdgeRelation(t *testing.T) {
	if _, err := TransitiveClosure(context.Background(), core.NewDB()); err == nil {
		t.Error("missing edge relation should fail")
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testutil.RandomGraphDB(rng, 500, 3000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TransitiveClosure(ctx, db); err == nil {
		t.Error("cancelled context should error")
	}
}
