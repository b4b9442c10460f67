package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// symmetricDB returns a database holding a symmetric edge relation (every
// pair in both directions) and its asymmetric u < v orientation fwd.
func symmetricDB(t *testing.T, n int) *core.DB {
	rng := rand.New(rand.NewSource(3))
	var edge, fwd [][]int64
	for i := 0; i < n; i++ {
		u, v := rng.Int63n(60), rng.Int63n(60)
		if u == v {
			continue
		}
		edge = append(edge, []int64{u, v}, []int64{v, u})
		fwd = append(fwd, []int64{min(u, v), max(u, v)})
	}
	db := core.NewDB()
	if err := db.AddAll([]*relation.Relation{relation.FromTuples("edge", 2, edge), relation.FromTuples("fwd", 2, fwd)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// sortedRows runs q under gao on LFTJ and returns its rows, sorted.
func sortedRows(t *testing.T, db *core.DB, q *query.Query, gao []string) [][]int64 {
	t.Helper()
	plan, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ, GAO: gao}, q, db)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	if _, err := engine.Run(context.Background(), plan, nil, &engine.Options{Workers: 1}, func(r []int64) bool {
		rows = append(rows, slices.Clone(r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(rows, relation.CompareTuples)
	return rows
}

// checkNaive holds a two-hop query over rel, under the order that binds
// the swapped index and the one that binds the canonical, to naive.
func checkNaive(t *testing.T, db *core.DB, rel, when string) {
	t.Helper()
	q := query.New("q", query.Atom{Rel: rel, Vars: []string{"a", "b"}}, query.Atom{Rel: rel, Vars: []string{"b", "c"}})
	var want [][]int64
	if err := naive.Enumerate(context.Background(), q, db, func(r []int64) bool {
		want = append(want, slices.Clone(r))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(want, relation.CompareTuples)
	for _, gao := range [][]string{{"b", "a", "c"}, {"a", "b", "c"}, {"c", "b", "a"}} {
		if got := sortedRows(t, db, q, gao); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s %s under %v: %d rows, naive %d", when, rel, gao, len(got), len(want))
		}
	}
}

// TestSwappedIndexSharesSymmetricBase: the swapped index of a symmetric
// binary relation holds exactly its canonical rows, so it shares the
// canonical overlay; an asymmetric relation's does not. The two part ways
// at an Apply that breaks the symmetry and again at a compaction, and
// every order's rows stay naive's throughout.
func TestSwappedIndexSharesSymmetricBase(t *testing.T) {
	db := symmetricDB(t, 200)
	swapped := []int{1, 0}
	for _, rel := range []string{"edge", "fwd"} {
		if _, err := db.TrieIndex(rel, swapped); err != nil {
			t.Fatal(err)
		}
		checkNaive(t, db, rel, "built")
	}
	if db.IndexOverlay("edge", swapped) != db.IndexOverlay("edge", []int{0, 1}) {
		t.Error("the swapped index of symmetric edge does not share the canonical base")
	}
	if db.IndexOverlay("fwd", swapped) == db.IndexOverlay("fwd", []int{0, 1}) {
		t.Error("the swapped index of asymmetric fwd shares the canonical base")
	}
	if err := db.ApplyDelta("edge", [][]int64{{100, 1}}, [][]int64{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if db.IndexOverlay("edge", swapped) == db.IndexOverlay("edge", []int{0, 1}) {
		t.Error("an Apply that breaks the symmetry left the two indexes one overlay")
	}
	checkNaive(t, db, "edge", "after an asymmetric Apply")
	compactions := relation.OverlayCompactions()
	var batch [][]int64
	for i := int64(0); i < 300; i++ {
		batch = append(batch, []int64{200 + i, i % 7})
	}
	if err := db.ApplyDelta("edge", batch, nil); err != nil {
		t.Fatal(err)
	}
	if relation.OverlayCompactions() == compactions {
		t.Fatal("the batch compacted no overlay")
	}
	checkNaive(t, db, "edge", "after a compaction")
	// Reloading a symmetric relation shares again.
	r, err := db.Relation("fwd")
	if err != nil {
		t.Fatal(err)
	}
	var sym [][]int64
	for _, tu := range r.Tuples() {
		sym = append(sym, tu, []int64{tu[1], tu[0]})
	}
	if err := db.Add(relation.FromTuples("edge", 2, sym)); err != nil {
		t.Fatal(err)
	}
	if db.IndexOverlay("edge", swapped) != db.IndexOverlay("edge", []int{0, 1}) {
		t.Error("a symmetric reload does not share the canonical base")
	}
	checkNaive(t, db, "edge", "after a reload")
}

// TestPrepareLeavesNoStrayIndex: pricing builds an index for every order
// it tries, but after Compile each relation holds only the indexes some
// plan binds.
func TestPrepareLeavesNoStrayIndex(t *testing.T) {
	g := dataset.Generate(dataset.HolmeKim, 600, 2400, 5)
	var fwd [][]int64
	for _, e := range g.Edges {
		fwd = append(fwd, []int64{e[0], e[1]})
	}
	for _, src := range []string{
		"fwd(a,b), fwd(b,c), fwd(a,c)",
		"fwd(a,b), fwd(a,c), fwd(a,d), fwd(b,c), fwd(b,d), fwd(c,d)",
		"fwd(a,b), fwd(b,c), fwd(c,d)",
		"fwd(a,b), fwd(a,c)",
	} {
		db := core.NewDB()
		if err := db.Add(relation.FromTuples("fwd", 2, fwd)); err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse("q", src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ}, q, db)
		if err != nil {
			t.Fatal(err)
		}
		bound := [][]int{{0, 1}} // the canonical index, which the relation always keeps
		for _, a := range plan.Atoms {
			bound = append(bound, a.Index.Perm())
		}
		for _, perm := range db.IndexPerms("fwd") {
			if !slices.ContainsFunc(bound, func(p []int) bool { return slices.Equal(p, perm) }) {
				t.Errorf("%s: fwd holds an index in order %v the plan under %v does not bind", src, perm, plan.GAO)
			}
		}
	}
}
