package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func TestDBAddAndLookup(t *testing.T) {
	db := NewDB()
	r := relation.FromTuples("R", 2, [][]int64{{1, 2}, {3, 4}})
	db.Add(r)
	got, err := db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Error("lookup returned a different relation")
	}
	if _, err := db.Relation("S"); err == nil {
		t.Error("missing relation should error")
	}
	names := db.Names()
	if len(names) != 1 || names[0] != "R" {
		t.Errorf("Names = %v", names)
	}
}

func TestIndexCaching(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("R", 2, [][]int64{{1, 2}, {3, 4}}))
	a, err := db.Index("R", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Index("R", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("index not cached")
	}
	if !reflect.DeepEqual(a.Tuple(0), []int64{2, 1}) {
		t.Errorf("permuted index tuple = %v", a.Tuple(0))
	}
	// Replacing the relation invalidates its cached indexes.
	db.Add(relation.FromTuples("R", 2, [][]int64{{9, 9}}))
	c, err := db.Index("R", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("stale index survived relation replacement")
	}
	if _, err := db.Index("missing", []int{0}); err == nil {
		t.Error("indexing a missing relation should error")
	}
}

func TestBindAtoms(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}, {2, 3}}))
	q := query.New("q",
		query.Atom{Rel: "edge", Vars: []string{"a", "b"}},
		query.Atom{Rel: "edge", Vars: []string{"b", "c"}},
	)
	// GAO c,b,a: the first atom's index order must become (b,a), the
	// second's (c,b) -> wait: positions c=0,b=1,a=2, so atom1 (a,b) sorts to
	// (b,a) and atom2 (b,c) sorts to (c,b).
	atoms, err := BindAtoms(q, db, []string{"c", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(atoms[0].VarPos, []int{1, 2}) {
		t.Errorf("atom0 VarPos = %v, want [1 2]", atoms[0].VarPos)
	}
	if !reflect.DeepEqual(atoms[1].VarPos, []int{0, 1}) {
		t.Errorf("atom1 VarPos = %v, want [0 1]", atoms[1].VarPos)
	}
	// atom0's index is edge permuted to (b,a): sorted tuples (2,1),(3,2).
	if got := collect(t, db.Pin().Overlay(atoms[0].Index)); !reflect.DeepEqual(got[0], []int64{2, 1}) {
		t.Errorf("atom0 index tuple = %v", got[0])
	}
	// A GAO missing a variable fails.
	if _, err := BindAtoms(q, db, []string{"a", "b"}); err == nil {
		t.Error("short GAO should fail")
	}
}

// TestBindArityMismatch: an atom wider or narrower than its relation fails
// to bind with ErrArityMismatch, through every entry point, and binds
// nothing.
func TestBindArityMismatch(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}, {2, 3}}))
	wide := query.New("wide", query.Atom{Rel: "edge", Vars: []string{"a", "b", "c"}})
	if _, err := NewPlan(wide, db, "lftj", []string{"a", "b", "c"}, nil, false, "", nil); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("NewPlan over a 3-variable atom of a 2-ary relation: %v, want ErrArityMismatch", err)
	}
	narrow := query.New("narrow", query.Atom{Rel: "edge", Vars: []string{"a"}})
	if _, err := BindAtoms(narrow, db, []string{"a"}); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("BindAtoms over a 1-variable atom of a 2-ary relation: %v, want ErrArityMismatch", err)
	}
	if _, err := db.TrieIndex("edge", []int{0, 1, 2}); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("TrieIndex with a 3-column order: %v, want ErrArityMismatch", err)
	}
	if len(db.tries) != 0 || len(db.Pin().ovs) != 0 {
		t.Errorf("a failed bind left %d cached indexes behind", len(db.tries))
	}
}

func TestTicker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tick := NewTicker(ctx)
	for i := 0; i < CheckEvery-1; i++ {
		if err := tick.Tick(); err != nil {
			t.Fatalf("unexpected early error: %v", err)
		}
	}
	cancel()
	var got error
	for i := 0; i < CheckEvery+1; i++ {
		if err := tick.Tick(); err != nil {
			got = err
			break
		}
	}
	if got == nil {
		t.Error("ticker never surfaced the cancellation")
	}
}
