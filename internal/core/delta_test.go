package core

import (
	"errors"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func deltaDB() *DB {
	db := NewDB()
	db.Add(relation.FromTuples("edge", 2, [][]int64{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}))
	return db
}

// collect walks an index cursor's full contents as tuples.
func collect(t *testing.T, idx IndexBackend) [][]int64 {
	t.Helper()
	var out [][]int64
	tuple := make([]int64, idx.Arity())
	c := idx.NewCursor()
	var rec func(d int)
	rec = func(d int) {
		c.Open()
		for !c.AtEnd() {
			tuple[d] = c.Key()
			if d+1 == idx.Arity() {
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
	if csr.Len() != 5 {
		t.Errorf("CSR Len = %d, want 5", csr.Len())
	}
	if _, found := csr.ProbeGap([]int64{9, 9}); !found {
		t.Error("inserted tuple missing from CSR index")
	}
	if _, found := csr.ProbeGap([]int64{1, 2}); found {
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
	got := collect(t, rev)
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
	db.StorePlan("k", p, db.Version())
	if err := db.ApplyDelta("edge", [][]int64{{8, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if cached, _, ok := db.CachedPlan("k"); !ok {
		t.Error("plan dropped by ApplyDelta")
	} else if cached.Atoms[0].Index.Len() != 6 {
		t.Errorf("plan index Len = %d, want 6", cached.Atoms[0].Index.Len())
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
	v0 := db.Version()
	// Everything a no-op: present insert, absent delete, absent both-sides.
	err := db.ApplyDelta("edge",
		[][]int64{{1, 2}, {50, 50}},
		[][]int64{{40, 40}, {50, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != v0 {
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

// TestSnapshotAtoms: snapshotted atoms pin the pre-delta index state for a
// whole execution, and atoms sharing an index object share one snapshot.
func TestSnapshotAtoms(t *testing.T) {
	db := deltaDB()
	q := query.New("q",
		query.Atom{Rel: "edge", Vars: []string{"a", "b"}},
		query.Atom{Rel: "edge", Vars: []string{"a", "c"}},
	)
	atoms, err := BindAtoms(q, db, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	snap := SnapshotAtoms(atoms)
	if snap[0].Index == atoms[0].Index {
		t.Fatal("snapshot did not replace the updatable index")
	}
	if snap[0].Index != snap[1].Index {
		t.Error("atoms over the same index resolved to different snapshots")
	}
	if err := db.ApplyDelta("edge", [][]int64{{9, 9}}, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, found := snap[0].Index.ProbeGap([]int64{1, 2}); !found {
		t.Error("snapshot lost a pre-delta tuple")
	}
	if _, found := snap[0].Index.ProbeGap([]int64{9, 9}); found {
		t.Error("snapshot sees a post-delta tuple")
	}
	if _, found := atoms[0].Index.ProbeGap([]int64{9, 9}); !found {
		t.Error("live index misses the post-delta tuple")
	}
	// Pinned views are immutable already; SnapshotAtoms leaves them alone.
	if got := SnapshotAtoms(snap); &got[0] != &snap[0] {
		t.Error("SnapshotAtoms copied a slice with nothing to snapshot")
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
	old := idx.NewCursor()
	old.Open() // pin the pre-delta snapshot
	if err := db.ApplyDelta("edge", nil, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if old.AtEnd() || old.Key() != 1 {
		t.Error("pre-delta cursor lost its snapshot")
	}
	fresh := collect(t, idx)
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
