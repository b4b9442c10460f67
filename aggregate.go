package repro

import (
	"repro/internal/query"
)

// aggSpec is the compiled streaming-aggregation shape of a query with
// aggregate terms: the engines emit rows of q.Emitted() — group keys first,
// then the aggregated variables — distinct and ascending in that order under
// every GAO (core.Pushdown), hence grouped by the keys, so one output row per
// group can be folded on the fly without materializing anything.
//
// Aggregates follow set semantics over the query result: each fold step sees
// one distinct binding of (group keys, aggregated variables), so count(v) is the
// number of distinct v values per group, and sum(v) adds each distinct value
// once.
type aggSpec struct {
	keys int             // leading group-key columns in each engine row
	cols []int           // engine-row column read by each aggregate
	fns  []query.AggFunc // fold function per aggregate
}

// newAggSpec compiles the aggregation shape, or returns nil for queries
// without aggregate terms.
func newAggSpec(q *Query) *aggSpec {
	if len(q.Aggs) == 0 {
		return nil
	}
	idx := q.VarIndex()
	sp := &aggSpec{
		keys: len(q.Out()),
		cols: make([]int, len(q.Aggs)),
		fns:  make([]query.AggFunc, len(q.Aggs)),
	}
	for i, ag := range q.Aggs {
		sp.cols[i] = idx[ag.Var]
		sp.fns[i] = ag.Func
	}
	return sp
}

// enumerate is a Prepared/Txn-shaped execution: it drives emit with reused
// tuple slices and returns the first error.
type enumerateFn func(emit func([]int64) bool) error

// value is what engine row t contributes to aggregate i: 1 for a count,
// the aggregated column otherwise.
func (sp *aggSpec) value(i int, t []int64) int64 {
	if sp.fns[i] == query.AggCount {
		return 1
	}
	return t[sp.cols[i]]
}

func (sp *aggSpec) initAcc(acc []int64, t []int64) {
	for i := range sp.fns {
		acc[i] = sp.value(i, t)
	}
}

func (sp *aggSpec) foldAcc(acc []int64, t []int64) {
	for i, fn := range sp.fns {
		acc[i] = fn.Merge(acc[i], sp.value(i, t))
	}
}

// run streams the grouped engine rows through the accumulators, emitting one
// [keys..., values...] row per group. Emission stays streaming: a group's
// row is flushed the moment the next group's first engine row (or the end of
// the stream) arrives, and emit returning false stops the underlying
// enumeration.
func (sp *aggSpec) run(enumerate enumerateFn, emit func([]int64) bool) error {
	cur := make([]int64, sp.keys)
	acc := make([]int64, len(sp.fns))
	out := make([]int64, sp.keys+len(sp.fns))
	have := false
	stopped := false
	flush := func() bool {
		copy(out, cur[:sp.keys])
		copy(out[sp.keys:], acc)
		ok := emit(out)
		stopped = !ok
		return ok
	}
	err := enumerate(func(t []int64) bool {
		if have && !sameGroup(cur, t, sp.keys) {
			if !flush() {
				return false
			}
			have = false
		}
		if !have {
			have = true
			copy(cur, t[:sp.keys])
			sp.initAcc(acc, t)
			return true
		}
		sp.foldAcc(acc, t)
		return true
	})
	if err != nil {
		return err
	}
	if have && !stopped {
		flush()
	}
	return nil
}

// count returns the number of groups (= output rows) without building
// accumulator values.
func (sp *aggSpec) count(enumerate enumerateFn) (int64, error) {
	cur := make([]int64, sp.keys)
	have := false
	var n int64
	err := enumerate(func(t []int64) bool {
		if have && sameGroup(cur, t, sp.keys) {
			return true
		}
		have = true
		copy(cur, t[:sp.keys])
		n++
		return true
	})
	return n, err
}

func sameGroup(cur, t []int64, keys int) bool {
	for i := 0; i < keys; i++ {
		if cur[i] != t[i] {
			return false
		}
	}
	return true
}
