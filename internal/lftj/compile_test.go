package lftj_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lftj"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestBadGAO pins that a user order which is not an order of the query's
// variables is refused at compilation, with the typed error.
func TestBadGAO(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	for _, gao := range [][]string{{"a", "b"}, {"a", "b", "z"}, {"a", "a", "b"}, {"a", "b", "c", "d"}} {
		_, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ, GAO: gao}, query.Clique(3), db)
		if !errors.Is(err, core.ErrUnboundVar) {
			t.Errorf("GAO %v: %v, want ErrUnboundVar", gao, err)
		}
	}
}

func TestMissingRelation(t *testing.T) {
	_, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ}, query.Clique(3), core.NewDB())
	if !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("missing relation: %v, want ErrUnknownRelation", err)
	}
	// A compiled plan runs through the frozen Engine shim.
	db := testutil.GraphDB(testutil.K4, nil)
	plan, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ}, query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := (lftj.Engine{Opts: lftj.Options{Plan: plan}}).Count(context.Background(), plan.Query, db); err != nil || n != 4 {
		t.Errorf("shim Count = %d, %v; want 4 triangles", n, err)
	}
}
