package minesweeper_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minesweeper"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestBadInputs pins that compilation refuses what Minesweeper cannot run,
// with the typed errors, and that every ms plan carries its skeleton.
func TestBadInputs(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	compile := func(gao []string, q *query.Query, db *core.DB) (*core.Plan, error) {
		return engine.Compile(engine.Options{Algorithm: engine.MS, GAO: gao}, q, db)
	}
	for _, gao := range [][]string{{"a"}, {"a", "b", "z"}, {"a", "a", "b"}} {
		if _, err := compile(gao, query.Clique(3), db); !errors.Is(err, core.ErrUnboundVar) {
			t.Errorf("GAO %v: %v, want ErrUnboundVar", gao, err)
		}
	}
	if _, err := compile(nil, query.New("empty"), db); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := compile(nil, query.Clique(3), core.NewDB()); !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("missing relation: %v, want ErrUnknownRelation", err)
	}
	for _, disable := range []bool{false, true} {
		opts := engine.Options{Algorithm: engine.MS, MS: minesweeper.Options{DisableSkeleton: disable}}
		plan, err := engine.Compile(opts, query.Clique(4), db)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.InSkel) != len(plan.Atoms) {
			t.Errorf("DisableSkeleton=%v: InSkel %v for %d atoms", disable, plan.InSkel, len(plan.Atoms))
		}
		if n, err := minesweeper.Run(context.Background(), plan, plan.Pin(), opts.MS, core.FullRange, nil, nil); err != nil || n != 1 {
			t.Errorf("DisableSkeleton=%v: %d 4-cliques, %v; want 1", disable, n, err)
		}
	}
}
