package hybrid

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

func TestSplitLollipop(t *testing.T) {
	sp, err := splitQuery(query.Lollipop(2))
	if err != nil {
		t.Fatal(err)
	}
	if sp.attachment != "c" {
		t.Errorf("attachment = %q, want c", sp.attachment)
	}
	// Path part: v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e) — the
	// greedy prefix stays acyclic until the closing triangle edge.
	if len(sp.pathAtoms)+len(sp.cliqueAtoms) != 6 {
		t.Errorf("split loses atoms: %d + %d", len(sp.pathAtoms), len(sp.cliqueAtoms))
	}
	sp3, err := splitQuery(query.Lollipop(3))
	if err != nil {
		t.Fatal(err)
	}
	if sp3.attachment != "d" {
		t.Errorf("3-lollipop attachment = %q, want d", sp3.attachment)
	}
}

func TestSplitRejects(t *testing.T) {
	if _, err := splitQuery(query.Path(3)); err == nil {
		t.Error("fully acyclic query should be rejected")
	}
	if _, err := splitQuery(query.New("empty")); err == nil {
		t.Error("empty query should be rejected")
	}
	// 4-clique: greedy prefix is the a-star; remainder shares 3 variables.
	if _, err := splitQuery(query.Clique(4)); err == nil {
		t.Error("4-clique should be rejected (multi-variable interface)")
	}
}

func TestDifferentialVsLFTJ(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		db := testutil.RandomGraphDB(rng, 4+rng.Intn(10), 2+rng.Intn(30), 2)
		for _, q := range []*query.Query{query.Lollipop(2), query.Lollipop(3)} {
			want := count(t, naive.Count, q, db)
			if got := count(t, Engine{}.Count, q, db); got != want {
				t.Errorf("trial %d %s: hybrid = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 150, 3000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Engine{}).Count(ctx, query.Lollipop(2), db); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

// TestCliqueErrorSurfaces pins that a clique part that cannot run fails
// Count with its typed error: the halves are compiled before either runs.
func TestCliqueErrorSurfaces(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	q, err := query.Parse("q", "edge(x,y), edge(y,a), nope(a,b), nope(b,c), nope(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	if sp, err := splitQuery(q); err != nil || sp.attachment != "a" {
		t.Fatalf("split = %+v, %v; want attachment a", sp, err)
	}
	if _, err := (Engine{}).Count(context.Background(), q, db); !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("Count: %v, want ErrUnknownRelation", err)
	}
}
