package graphengine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestCliquesOnK4(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	e := Engine{}
	got, err := e.Count(context.Background(), query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("triangles(K4) = %d, want 4", got)
	}
	got, err = e.Count(context.Background(), query.Clique(4), db)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("4-cliques(K4) = %d, want 1", got)
	}
}

func TestDifferentialVsLFTJ(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		db := testutil.RandomGraphDB(rng, 10+rng.Intn(30), 20+rng.Intn(200), 2)
		for _, q := range []*query.Query{query.Clique(3), query.Clique(4)} {
			want, err := naive.Count(context.Background(), q, db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (Engine{Workers: 1 + rng.Intn(4)}).Count(context.Background(), q, db)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("trial %d %s: graphengine = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

func TestUnsupportedQueries(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	e := Engine{}
	if _, err := e.Count(context.Background(), query.Path(3), db); err == nil {
		t.Error("3-path should be rejected (clique-only engine)")
	}
}

func TestEmptyGraph(t *testing.T) {
	db := testutil.GraphDB(nil, nil)
	got, err := (Engine{}).Count(context.Background(), query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("triangles(empty) = %d, want 0", got)
	}
}
