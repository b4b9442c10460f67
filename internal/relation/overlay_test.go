package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// tupleKey encodes a tuple as a map key for the fixture's live set.
func tupleKey(t []int64) string { return fmt.Sprint(t) }

// overlayFixture builds an overlay by applying random insert/delete batches
// on top of a random base, alongside the flat relation holding the same
// merged contents (the reference the overlay must reproduce exactly).
func overlayFixture(t *testing.T, seed int64, arity, n, domain, batches, batchSize int) (*Overlay, *Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := randomRelation(rng, arity, n, domain)
	ov := NewOverlay(base)
	live := make(map[string][]int64, base.Len())
	for i := 0; i < base.Len(); i++ {
		tp := append([]int64(nil), base.Tuple(i)...)
		live[tupleKey(tp)] = tp
	}
	tuple := make([]int64, arity)
	for b := 0; b < batches; b++ {
		var ins, dels [][]int64
		touched := make(map[string]bool, batchSize)
		for k := 0; k < batchSize; k++ {
			for j := range tuple {
				tuple[j] = int64(rng.Intn(domain))
			}
			cp := append([]int64(nil), tuple...)
			key := tupleKey(cp)
			if touched[key] {
				continue // keep each batch's sides disjoint (the Apply contract)
			}
			touched[key] = true
			if _, ok := live[key]; ok {
				delete(live, key)
				dels = append(dels, cp)
			} else {
				live[key] = cp
				ins = append(ins, cp)
			}
		}
		ov = ov.Apply(ins, dels)
	}
	b := NewBuilder(base.Name(), arity)
	for _, tp := range live {
		b.Add(tp...)
	}
	return ov, b.Build()
}

// TestOverlayWalkMatchesFlat checks the merged overlay cursor (base minus
// tombstones plus adds) against a flat relation holding the same contents,
// across arities, with the overlay still carrying live logs.
func TestOverlayWalkMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ arity, n, domain int }{
		{1, 200, 120},
		{2, 300, 25},
		{3, 400, 8},
		{4, 400, 6},
	} {
		ov, want := overlayFixture(t, int64(tc.arity*31), tc.arity, tc.n, tc.domain, 6, 5)
		if ov.Len() != want.Len() {
			t.Fatalf("arity %d: overlay Len %d, want %d", tc.arity, ov.Len(), want.Len())
		}
		if merged := ov.Flat(); !reflect.DeepEqual(merged.Tuples(), want.Tuples()) {
			t.Errorf("arity %d: Flat() differs from the reference relation", tc.arity)
		}
		var runs, wantRuns [][2]int64
		ov.Runs(func(key int64, rows int) bool {
			runs = append(runs, [2]int64{key, int64(rows)})
			return true
		})
		for i := 0; i < want.Len(); i++ {
			if last := len(wantRuns) - 1; last >= 0 && wantRuns[last][0] == want.Value(i, 0) {
				wantRuns[last][1]++
			} else {
				wantRuns = append(wantRuns, [2]int64{want.Value(i, 0), 1})
			}
		}
		if !reflect.DeepEqual(runs, wantRuns) {
			t.Errorf("arity %d: Runs %v, want %v", tc.arity, runs, wantRuns)
		}
		flat := walk(NewTrieIterator(want), want.Arity())
		got := walk(ov.NewCursor(), ov.Arity())
		if !reflect.DeepEqual(flat, got) {
			t.Errorf("arity %d: overlay walk differs from flat (flat %d visits, overlay %d, log %d)",
				tc.arity, len(flat), len(got), ov.LogLen())
		}
	}
}

// TestOverlaySeekGEMatchesFlat drives the merged SeekGE path, which must
// skip fully deleted base subtrees and interleave the adds log.
func TestOverlaySeekGEMatchesFlat(t *testing.T) {
	ov, want := overlayFixture(t, 7, 3, 500, 20, 8, 6)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		seeks := []int64{int64(rng.Intn(22)), int64(rng.Intn(22)), int64(rng.Intn(22))}
		flat := walkWithSeeks(NewTrieIterator(want), 3, seeks)
		got := walkWithSeeks(ov.NewCursor(), 3, seeks)
		if !reflect.DeepEqual(flat, got) {
			t.Fatalf("seek walk %v: overlay differs from flat", seeks)
		}
	}
}

// TestOverlayProbeGapMatchesFlat pins the merged gap semantics — deleted
// subtrees open gaps, added tuples close them — to the flat reference
// exactly, endpoint for endpoint.
func TestOverlayProbeGapMatchesFlat(t *testing.T) {
	for _, arity := range []int{1, 2, 3} {
		ov, want := overlayFixture(t, int64(40+arity), arity, 300, 9, 6, 5)
		rng := rand.New(rand.NewSource(int64(arity)))
		point := make([]int64, arity)
		for trial := 0; trial < 2000; trial++ {
			for k := range point {
				point[k] = int64(rng.Intn(11)) // domain+2: probes off both ends
			}
			fg, ffound := want.ProbeGap(point)
			og, ofound := ov.ProbeGap(point)
			if ffound != ofound || fg != og {
				t.Fatalf("arity %d point %v: flat (%v, %v) vs overlay (%v, %v)",
					arity, point, fg, ffound, og, ofound)
			}
		}
	}
}

// TestOverlayLogCancellation: re-inserting a deleted tuple and deleting a
// pending insert shrink the logs instead of growing them.
func TestOverlayLogCancellation(t *testing.T) {
	base := FromTuples("R", 2, [][]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}})
	ov := NewOverlay(base)
	ov = ov.Apply([][]int64{{9, 9}}, [][]int64{{1, 1}})
	if ov.LogLen() != 2 || ov.Len() != 8 {
		t.Fatalf("after batch 1: log %d len %d", ov.LogLen(), ov.Len())
	}
	// Cancel both pending entries.
	ov = ov.Apply([][]int64{{1, 1}}, [][]int64{{9, 9}})
	if ov.LogLen() != 0 || ov.Len() != 8 {
		t.Fatalf("after cancellation: log %d len %d", ov.LogLen(), ov.Len())
	}
	if _, found := ov.ProbeGap([]int64{1, 1}); !found {
		t.Error("re-inserted tuple missing")
	}
	if _, found := ov.ProbeGap([]int64{9, 9}); found {
		t.Error("cancelled insert still present")
	}
}

// TestApplySortedBothSides: a tuple on both sides of one sorted batch is an
// insert-then-delete — it must touch neither log, whether it is absent from
// the overlay or pending in it.
func TestApplySortedBothSides(t *testing.T) {
	base := FromTuples("R", 2, [][]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}})
	ov := NewOverlay(base).Apply([][]int64{{9, 9}}, [][]int64{{1, 1}})
	rel := func(tuples ...[]int64) *Relation { return FromTuples("R", 2, tuples) }
	next := ov.ApplySorted(rel([]int64{1, 1}, []int64{20, 20}, []int64{30, 30}), rel([]int64{2, 2}, []int64{20, 20}))
	want := rel([]int64{1, 1}, []int64{3, 3}, []int64{4, 4}, []int64{5, 5}, []int64{6, 6}, []int64{7, 7}, []int64{8, 8}, []int64{9, 9}, []int64{30, 30})
	if got := next.Flat(); !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
		t.Errorf("contents %v, want %v", got.Tuples(), want.Tuples())
	}
	if next.LogLen() != 3 { // +{9,9} +{30,30} −{2,2}; {1,1} restored, {20,20} never lands
		t.Errorf("log holds %d tuples, want 3", next.LogLen())
	}
	if same := next.ApplySorted(rel([]int64{40, 40}), rel([]int64{40, 40})); same != next {
		t.Error("a batch that cancels itself produced a new snapshot")
	}
}

// TestOverlayCompaction: once the logs pass the threshold the overlay folds
// them into a fresh base and keeps answering identically.
func TestOverlayCompaction(t *testing.T) {
	base := randomRelation(rand.New(rand.NewSource(1)), 2, 40, 40)
	ov := NewOverlay(base)
	var ins [][]int64
	for i := 0; i < overlayCompactMin+8; i++ {
		ins = append(ins, []int64{int64(100 + i), int64(i)})
	}
	ov = ov.Apply(ins, nil)
	if ov.LogLen() != 0 {
		t.Fatalf("log size %d after threshold crossing, want compaction", ov.LogLen())
	}
	if ov.Len() != base.Len()+len(ins) {
		t.Fatalf("post-compaction Len = %d, want %d", ov.Len(), base.Len()+len(ins))
	}
	for _, tuple := range ins {
		if _, found := ov.ProbeGap(tuple); !found {
			t.Fatalf("tuple %v lost in compaction", tuple)
		}
	}
}

// TestOverlayPristineFastPath: a cursor over an overlay without deltas is
// pure from the root down — every operation is the base CSR cursor's — and
// Reset re-targets one cursor between pristine and dirty overlays in place.
func TestOverlayPristineFastPath(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(2)), 2, 50, 10)
	ov := NewOverlay(r)
	var c OverlayCursor
	c.Reset(ov)
	if c.pure != 0 {
		t.Errorf("pristine overlay cursor is pure from depth %d, want 0", c.pure)
	}
	want := walk(NewCSRCursor(ov.base), 2)
	if got := walk(&c, 2); !reflect.DeepEqual(got, want) {
		t.Error("pristine overlay walk differs from the base CSR cursor's")
	}
	ov2 := ov.Apply([][]int64{{99, 99}}, nil)
	c.Reset(ov2)
	if c.pure <= ov2.Arity() {
		t.Errorf("dirty overlay cursor is pure from depth %d, want merged", c.pure)
	}
	if got, want := walk(&c, 2), walk(NewTrieIterator(ov2.Flat()), 2); !reflect.DeepEqual(got, want) {
		t.Error("re-targeted cursor's walk of the dirty overlay differs from flat")
	}
	c.Reset(ov)
	if got := walk(&c, 2); c.pure != 0 || !reflect.DeepEqual(got, want) {
		t.Error("cursor re-targeted back at the pristine overlay does not walk the base")
	}
	// Snapshot isolation: the pristine snapshot still answers pre-update.
	if _, found := ov.ProbeGap([]int64{99, 99}); found {
		t.Error("old snapshot sees new tuple")
	}
}

// TestMergeDelta checks the linear three-way merge against a rebuilt
// reference.
func TestMergeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := randomRelation(rng, 2, 200, 20)
	var ins, dels [][]int64
	for i := 0; i < 30; i++ {
		t2 := []int64{int64(rng.Intn(20)), int64(rng.Intn(20))}
		if r.Contains(t2) {
			dels = append(dels, t2)
		} else {
			ins = append(ins, t2)
		}
	}
	insRel := FromTuples("R", 2, ins)
	delsRel := FromTuples("R", 2, dels)
	got := MergeDelta(r, insRel, delsRel)
	b := NewBuilder("R", 2)
	for i := 0; i < r.Len(); i++ {
		if !delsRel.Contains(r.Tuple(i)) {
			b.Add(r.Tuple(i)...)
		}
	}
	for i := 0; i < insRel.Len(); i++ {
		b.Add(insRel.Tuple(i)...)
	}
	want := b.Build()
	if got.Len() != want.Len() {
		t.Fatalf("MergeDelta Len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if CompareTuples(got.Tuple(i), want.Tuple(i)) != 0 {
			t.Fatalf("row %d: got %v want %v", i, got.Tuple(i), want.Tuple(i))
		}
	}
}
