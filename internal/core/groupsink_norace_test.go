//go:build !race

package core

import "testing"

// TestGroupSinkSteadyStateAllocs pins what keeps the benchmark's allocation
// rows where they were: a sink that has grown its buffers once runs —
// two-column sort included — without allocating. (The race detector's
// instrumentation allocates, hence the build tag.)
func TestGroupSinkSteadyStateAllocs(t *testing.T) {
	ps := &Pushdown{Emit: []int{0, 3, 2}, Keys: 1}
	bindings := [][]int64{{1, 10, 7, 5}, {1, 10, 3, 9}, {1, 11, 7, 5}, {2, 10, 1, 1}, {4, 10, 2, 2}, {4, 11, 1, 2}}
	var s GroupSink
	keep := func([]int64) bool { return true }
	n := testing.AllocsPerRun(20, func() {
		s.Reset(ps, keep)
		for _, b := range bindings {
			s.Add(b)
		}
		s.Flush()
	})
	if n != 0 {
		t.Errorf("steady-state run allocates %v times, want 0", n)
	}
}
