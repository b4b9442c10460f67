package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func deltaDB() *DB {
	db := NewDB()
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}))
	return db
}

// collect walks an overlay cursor's full contents as tuples.
func collect(t *testing.T, ov *relation.Overlay) [][]int64 {
	t.Helper()
	var out [][]int64
	tuple := make([]int64, ov.Arity())
	c := ov.NewCursor()
	var rec func(d int)
	rec = func(d int) {
		c.Open()
		for !c.AtEnd() {
			tuple[d] = c.Key()
			if d+1 == ov.Arity() {
				out = append(out, append([]int64(nil), tuple...))
			} else {
				rec(d + 1)
			}
			c.Next()
		}
		c.Up()
	}
	rec(0)
	return out
}

// TestApplyDeltaMaintainsCSRInPlace: the cached index object absorbs the
// batch through its overlay — same object, new contents.
func TestApplyDeltaMaintainsCSRInPlace(t *testing.T) {
	db := deltaDB()
	csr, err := db.TrieIndex("edge", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyDelta("edge", [][]int64{{9, 9}}, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	csr2, err := db.TrieIndex("edge", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if csr2 != csr {
		t.Error("CSR index was rebuilt, want in-place overlay advance")
	}
	if n := db.Pin().Overlay(csr).Len(); n != 5 {
		t.Errorf("CSR Len = %d, want 5", n)
	}
	if _, found := db.Pin().Overlay(csr).ProbeGap([]int64{9, 9}); !found {
		t.Error("inserted tuple missing from CSR index")
	}
	if _, found := db.Pin().Overlay(csr).ProbeGap([]int64{1, 2}); found {
		t.Error("deleted tuple still in CSR index")
	}
}

// TestApplyDeltaPermutedIndexes routes the batch through each cached
// index's own permutation: a (b,a)-ordered index must see permuted tuples.
func TestApplyDeltaPermutedIndexes(t *testing.T) {
	db := deltaDB()
	rev, err := db.TrieIndex("edge", []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyDelta("edge", [][]int64{{7, 8}}, [][]int64{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, db.Pin().Overlay(rev))
	r, _ := db.Relation("edge")
	want := r.Permute([]int{1, 0}).Tuples()
	if len(got) != len(want) {
		t.Fatalf("permuted index has %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestApplyDeltaPlanInvalidation: a delta batch invalidates no cached plan —
// the plan's indexes are advanced in place — while Add, which replaces the
// relation, drops it.
func TestApplyDeltaPlanInvalidation(t *testing.T) {
	db := deltaDB()
	q := query.New("q", query.Atom{Rel: "edge", Vars: []string{"a", "b"}})
	p, err := NewPlan(q, db, "lftj", []string{"a", "b"}, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	db.StorePlan("k", p, db.version)
	if err := db.ApplyDelta("edge", [][]int64{{8, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if cached, _, ok := db.CachedPlan("k"); !ok {
		t.Error("plan dropped by ApplyDelta")
	} else if n := db.Pin().Overlay(cached.Atoms[0].Index).Len(); n != 6 {
		t.Errorf("plan index Len = %d, want 6", n)
	}
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}}))
	if _, _, ok := db.CachedPlan("k"); ok {
		t.Error("plan survived Add replacing the relation it reads")
	}
}

// TestApplyDeltaFilters: duplicates, already-present inserts, absent
// deletes, and both-sides tuples resolve to a canonical delta.
func TestApplyDeltaFilters(t *testing.T) {
	db := deltaDB()
	v0 := db.version
	// Everything a no-op: present insert, absent delete, absent both-sides.
	err := db.ApplyDelta("edge",
		[][]int64{{1, 2}, {50, 50}},
		[][]int64{{40, 40}, {50, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if db.version != v0 {
		t.Error("no-op batch bumped the version")
	}
	r, _ := db.Relation("edge")
	if r.Len() != 5 {
		t.Errorf("no-op batch changed the relation: %d tuples", r.Len())
	}
	// Present both-sides tuple: delete wins.
	if err := db.ApplyDelta("edge", [][]int64{{2, 3}}, [][]int64{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	r, _ = db.Relation("edge")
	if r.Contains([]int64{2, 3}) {
		t.Error("present both-sides tuple survived (delete should win)")
	}
	if err := db.ApplyDelta("missing", [][]int64{{1}}, nil); err == nil {
		t.Error("ApplyDelta on unknown relation should fail")
	}
}

// TestPinnedGeneration: a pinned generation keeps the pre-delta index state
// for as long as it is held, atoms sharing an index object share one
// overlay, and Add retires an index without taking its contents from the
// plans and generations that still hold it.
func TestPinnedGeneration(t *testing.T) {
	db := deltaDB()
	q := query.New("q",
		query.Atom{Rel: "edge", Vars: []string{"a", "b"}},
		query.Atom{Rel: "edge", Vars: []string{"a", "c"}},
	)
	plan, err := NewPlan(q, db, "lftj", []string{"a", "b", "c"}, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := plan.Pin()
	if gen != db.Pin() {
		t.Fatal("an unpinned plan did not pin the current generation")
	}
	idx := plan.Atoms[0].Index
	if plan.Atoms[1].Index != idx || gen.Overlay(plan.Atoms[1].Index) != gen.Overlay(idx) {
		t.Fatal("atoms over the same index resolved to different overlays")
	}
	if err := db.ApplyDelta("edge", [][]int64{{9, 9}}, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, found := gen.Overlay(idx).ProbeGap([]int64{1, 2}); !found {
		t.Error("pinned generation lost a pre-delta tuple")
	}
	if _, found := gen.Overlay(idx).ProbeGap([]int64{9, 9}); found {
		t.Error("pinned generation sees a post-delta tuple")
	}
	if _, found := plan.Pin().Overlay(idx).ProbeGap([]int64{9, 9}); !found {
		t.Error("the next execution misses the post-delta tuple")
	}
	pinned := plan.PinnedTo(gen)
	if pinned.Pin() != gen {
		t.Error("a pinned plan does not read its generation")
	}
	// Add replaces the relation: the old index leaves the generation, and a
	// plan compiled before keeps reading its last contents.
	db.Add(relation.FromTuples("edge", 2, [][]int64{{7, 7}}))
	if _, ok := db.Pin().ovs[idx]; ok {
		t.Error("Add left the replaced relation's index in the generation")
	}
	if n := plan.Pin().Overlay(idx).Len(); n != 5 {
		t.Errorf("a retired index reads %d tuples, want its last 5", n)
	}
	if n := gen.Overlay(idx).Len(); n != 5 {
		t.Errorf("a generation pinned before the replacement reads %d tuples, want 5", n)
	}
}

// TestApplyDeltaSnapshotIsolation: a cursor opened before the delta keeps
// its snapshot while new cursors see the update.
func TestApplyDeltaSnapshotIsolation(t *testing.T) {
	db := deltaDB()
	idx, err := db.TrieIndex("edge", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	old := db.Pin().Overlay(idx).NewCursor()
	old.Open() // pin the pre-delta snapshot
	if err := db.ApplyDelta("edge", nil, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if old.AtEnd() || old.Key() != 1 {
		t.Error("pre-delta cursor lost its snapshot")
	}
	fresh := collect(t, db.Pin().Overlay(idx))
	if len(fresh) != 4 {
		t.Errorf("post-delta cursor sees %d tuples, want 4", len(fresh))
	}
}

// TestApplyDeltas: multi-relation batches land together, and an unknown
// relation anywhere in the list fails the whole call before any batch is
// applied.
func TestApplyDeltas(t *testing.T) {
	db := NewDB()
	db.Add(relation.FromTuples("a", 2, [][]int64{{1, 2}}))
	db.Add(relation.FromTuples("b", 2, [][]int64{{3, 4}}))
	err := db.ApplyDeltas([]DeltaBatch{
		{Name: "a", Inserts: [][]int64{{5, 6}}},
		{Name: "b", Deletes: [][]int64{{3, 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := db.Relation("a")
	rb, _ := db.Relation("b")
	if ra.Len() != 2 || rb.Len() != 0 {
		t.Errorf("a has %d rows (want 2), b has %d (want 0)", ra.Len(), rb.Len())
	}
	err = db.ApplyDeltas([]DeltaBatch{
		{Name: "a", Inserts: [][]int64{{7, 8}}},
		{Name: "zzz", Inserts: [][]int64{{0, 0}}},
	})
	if !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("err = %v, want ErrUnknownRelation", err)
	}
	if ra2, _ := db.Relation("a"); ra2.Len() != 2 {
		t.Errorf("a mutated by a rejected multi-batch: %d rows", ra2.Len())
	}
}

// TestLeaseFirstUsePin: an index bound after a lease began is pinned at its
// first use through the lease, and the lease keeps that pin — concurrent
// first uses and later uses, with writes landing in between, all read the
// same contents — while indexes bound before the lease read its begin.
func TestLeaseFirstUsePin(t *testing.T) {
	db := deltaDB()
	fwd, err := NewPlan(query.New("f", query.Atom{Rel: "edge", Vars: []string{"a", "b"}}), db, "lftj", []string{"a", "b"}, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	lease := db.NewLease()
	if err := db.ApplyDelta("edge", [][]int64{{8, 8}}, nil); err != nil {
		t.Fatal(err)
	}
	// Bound after the lease began: edge in (b, a) order.
	rev, err := NewPlan(query.New("r", query.Atom{Rel: "edge", Vars: []string{"a", "b"}}), db, "lftj", []string{"b", "a"}, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := rev.Atoms[0].Index
	var wg sync.WaitGroup
	pins := make([]*relation.Overlay, 8)
	for i := range pins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if err := db.ApplyDelta("edge", [][]int64{{9, int64(10 + i)}}, nil); err != nil {
					t.Error(err)
				}
			}
			pins[i] = lease.PinPlan(rev).Pin().Overlay(idx)
		}()
	}
	wg.Wait()
	for i, ov := range pins {
		if ov != pins[0] {
			t.Fatalf("first uses %d and 0 of the lease pinned different contents", i)
		}
	}
	if err := db.ApplyDelta("edge", [][]int64{{9, 99}}, nil); err != nil {
		t.Fatal(err)
	}
	if lease.PinPlan(rev).Pin().Overlay(idx) != pins[0] {
		t.Error("a later use through the lease did not read its first-use pin")
	}
	if n := lease.PinPlan(fwd).Pin().Overlay(fwd.Atoms[0].Index).Len(); n != 5 {
		t.Errorf("an index bound before the lease reads %d tuples through it, want the 5 at its begin", n)
	}
	if pins[0].Len() < 6 {
		t.Errorf("the first-use pin reads %d tuples, want the writes before it (>= 6)", pins[0].Len())
	}
}
