package hybrid

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/testutil"
)

func count(t *testing.T, e core.Engine, q *query.Query, db *core.DB) int64 {
	t.Helper()
	n, err := e.Count(context.Background(), q, db)
	if err != nil {
		t.Fatalf("%s Count(%s): %v", e.Name(), q.Name, err)
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
			want := count(t, naive.Engine{}, q, db)
			if got := count(t, Engine{}, q, db); got != want {
				t.Errorf("trial %d %s: hybrid = %d, naive = %d", trial, q.Name, got, want)
			}
		}
	}
}

func TestEnumerateMatchesLFTJ(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := testutil.RandomGraphDB(rng, 8, 24, 2)
	q := query.Lollipop(2)
	var want, got [][]int64
	if err := (naive.Engine{}).Enumerate(context.Background(), q, db, collect(&want)); err != nil {
		t.Fatal(err)
	}
	if err := (Engine{}).Enumerate(context.Background(), q, db, collect(&got)); err != nil {
		t.Fatal(err)
	}
	sortTuples(want)
	sortTuples(got)
	if len(want) != len(got) {
		t.Fatalf("hybrid enumerated %d, naive %d", len(got), len(want))
	}
	for i := range want {
		if relation.CompareTuples(want[i], got[i]) != 0 {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func collect(out *[][]int64) func([]int64) bool {
	return func(tu []int64) bool {
		*out = append(*out, append([]int64(nil), tu...))
		return true
	}
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool { return relation.CompareTuples(ts[i], ts[j]) < 0 })
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

// TestCliqueErrorSurfaces pins that a clique part that cannot run fails both
// Count and Enumerate with its typed error: the halves are compiled before
// either runs, so Enumerate cannot end quietly with zero rows.
func TestCliqueErrorSurfaces(t *testing.T) {
	db := testutil.GraphDB(testutil.K4, nil)
	q := query.MustParse("q", "edge(x,y), edge(y,a), nope(a,b), nope(b,c), nope(a,c)")
	if sp, err := splitQuery(q); err != nil || sp.attachment != "a" {
		t.Fatalf("split = %+v, %v; want attachment a", sp, err)
	}
	if _, err := (Engine{}).Count(context.Background(), q, db); !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("Count: %v, want ErrUnknownRelation", err)
	}
	rows := 0
	err := (Engine{}).Enumerate(context.Background(), q, db, func([]int64) bool { rows++; return true })
	if !errors.Is(err, core.ErrUnknownRelation) {
		t.Errorf("Enumerate: %v after %d rows, want ErrUnknownRelation", err, rows)
	}
}
