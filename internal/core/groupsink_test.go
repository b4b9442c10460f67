package core

import (
	"slices"
	"testing"
)

// TestGroupSink drives the sink the way an engine does — bindings in GAO
// order, grouped by the key columns — and checks the contract: distinct
// rows, ascending in output order, one group in memory at a time, early
// stop honoured, and no allocation once the buffers have grown.
func TestGroupSink(t *testing.T) {
	// GAO a < b < c < d, emitted (a, d, c): a is the key, (d, c) buffered.
	ps := &Pushdown{Emit: []int{0, 3, 2}, Keys: 1}
	bindings := [][]int64{
		{1, 10, 7, 5}, {1, 10, 3, 9}, {1, 11, 7, 5}, {1, 12, 8, 5}, {1, 13, 3, 9},
		{2, 10, 1, 1},
		{4, 10, 2, 2}, {4, 11, 1, 2}, {4, 12, 2, 2},
	}
	want := [][]int64{{1, 5, 7}, {1, 5, 8}, {1, 9, 3}, {2, 1, 1}, {4, 2, 1}, {4, 2, 2}}
	var s GroupSink
	var got [][]int64
	run := func(forward func([]int64) bool) {
		s.Reset(ps, forward)
		for _, b := range bindings {
			if !s.Add(b) {
				return
			}
		}
		s.Flush()
	}
	run(func(r []int64) bool { got = append(got, slices.Clone(r)); return true })
	if !slices.EqualFunc(got, want, slices.Equal[[]int64]) || s.Rows != int64(len(want)) {
		t.Fatalf("rows = %v (Rows %d), want %v", got, s.Rows, want)
	}

	// Count mode: no forward, same row count.
	if run(nil); s.Rows != int64(len(want)) {
		t.Errorf("count mode: Rows = %d, want %d", s.Rows, len(want))
	}

	// Early stop inside a group's flush ends the run there.
	seen := 0
	run(func([]int64) bool { seen++; return seen < 2 })
	if seen != 2 || s.Flush() {
		t.Errorf("stopped run forwarded %d rows (want 2) or Flush reports it still open", seen)
	}

	// One buffered column takes the flat sort path: GAO a < b, emitted (b)
	// with no key — one global group.
	one := &Pushdown{Emit: []int{1}, Keys: 0}
	got = got[:0]
	s.Reset(one, func(r []int64) bool { got = append(got, slices.Clone(r)); return true })
	for _, b := range [][]int64{{1, 9}, {1, 4}, {2, 9}, {3, 1}} {
		s.Add(b)
	}
	s.Flush()
	if want := [][]int64{{1}, {4}, {9}}; !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Errorf("global group rows = %v, want %v", got, want)
	}
}
