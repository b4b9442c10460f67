// Package lftj implements Leapfrog Triejoin (paper §2.2, [15]), the
// worst-case-optimal multiway join that LogicBlox ships: variables are bound
// one at a time in a global attribute order, and at each variable the
// participating atoms' trie iterators "leapfrog" over each other in a
// multiway sorted intersection. Runtime is Õ(N + AGM(Q)).
package lftj

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Engine wraps Run in the Count call the benchmark's engine rung makes:
// Count runs Opts.Plan over the whole first-variable domain.
type Engine struct {
	Opts Options
}

// Options name the compiled plan an Engine runs.
type Options struct {
	Plan *core.Plan
}

// Count runs the plan and returns its number of result tuples; q and db are
// the plan's own.
func (e Engine) Count(ctx context.Context, _ *query.Query, _ *core.DB) (int64, error) {
	return Run(ctx, e.Opts.Plan, e.Opts.Plan.Pin(), core.FullRange, nil, nil)
}

// Run executes a compiled plan over the first-variable values in r, on
// generation gen, and adds the run's counters to sc (which may be nil). The
// whole run reads gen, so a concurrent write can never mix two database
// states mid-join. Each row goes to emit, which returns false to stop; a nil
// emit only counts. Run returns the number of rows.
func Run(ctx context.Context, plan *core.Plan, gen *core.Generation, r core.Range, sc *core.StatsCollector, emit func([]int64) bool) (int64, error) {
	gao, push := plan.GAO, plan.Push
	ex := &exec{
		n:       len(gao),
		last:    push.EmitDepth(len(gao)) - 1,
		binding: make([]int64, len(gao)),
		emitPos: core.EmitPositions(make([]int, 0, len(gao)), plan.Query, gao, push),
		emit:    emit,
		tick:    core.NewTicker(ctx),
	}
	if push.Buffered() {
		ex.sink = sinks.Get().(*core.GroupSink)
		ex.sink.Reset(push, emit)
		defer func() {
			ex.sink.Release()
			sinks.Put(ex.sink)
		}()
	}
	// Fold the compiled seek bounds and the first-variable range into one
	// per-depth [lo, hi) table; residual predicates are bucketed by the
	// depth that decides them.
	if push != nil {
		if push.Bounds != nil {
			ex.lo = make([]int64, len(gao))
			ex.hi = make([]int64, len(gao))
			for d, b := range push.Bounds {
				ex.lo[d], ex.hi[d] = b.Lo, b.Hi
			}
		}
		if len(push.Residuals) > 0 {
			ex.resAt = make([][]core.ResidualPred, len(gao))
			for d := range ex.resAt {
				ex.resAt[d] = push.ResidualsAt(d)
			}
		}
	}
	if r != core.FullRange {
		if ex.lo == nil {
			ex.lo = make([]int64, len(gao))
			ex.hi = make([]int64, len(gao))
			for d := range ex.hi {
				ex.hi[d] = relation.PosInf
			}
		}
		ex.lo[0] = max(ex.lo[0], r.Lo)
		ex.hi[0] = min(ex.hi[0], r.Hi)
	}
	// One cursor per atom, and for each GAO depth the cursors of the atoms
	// participating in it.
	ex.byVar = make([][]*relation.OverlayCursor, len(gao))
	cursors := make([]relation.OverlayCursor, len(plan.Atoms))
	for i, a := range plan.Atoms {
		cursors[i].Reset(gen.Overlay(a.Index))
		for _, p := range a.VarPos {
			ex.byVar[p] = append(ex.byVar[p], &cursors[i])
		}
	}
	for d, its := range ex.byVar {
		if len(its) == 0 {
			return 0, fmt.Errorf("lftj: variable %s (depth %d) not bound by any atom: %w", gao[d], d, core.ErrUnboundVar)
		}
	}
	_, err := ex.run(0)
	if ex.sink != nil {
		if err == nil {
			ex.sink.Flush()
		}
		ex.outputs = ex.sink.Rows
	}
	sc.Add(core.Stats{Outputs: ex.outputs, Seeks: ex.seeks})
	if err != nil {
		return 0, err
	}
	return ex.outputs, nil
}

// sinks pools the group sinks of buffered executions, so their buffers are
// reused across executions rather than regrown by each.
var sinks = sync.Pool{New: func() any { return new(core.GroupSink) }}

type exec struct {
	n       int
	last    int // deepest level a row reads; below it one witness suffices
	byVar   [][]*relation.OverlayCursor
	binding []int64
	emitPos []int              // GAO position of each emitted column
	emit    func([]int64) bool // nil: count only
	sink    *core.GroupSink    // non-nil: rows go through it (core.Pushdown.Buffered)
	tick    *core.Ticker
	lo, hi  []int64               // per-depth seek bounds [lo, hi); nil when unbounded
	resAt   [][]core.ResidualPred // residual predicates decided at each depth
	out     []int64
	outputs int64
	seeks   int64
}

// residualsOK evaluates the residual predicates decided at depth d against
// the binding prefix built so far.
func (ex *exec) residualsOK(d int) bool {
	if ex.resAt == nil {
		return true
	}
	for _, r := range ex.resAt[d] {
		if !r.Eval(ex.binding) {
			return false
		}
	}
	return true
}

// run executes the triejoin at GAO depth d; it returns false when
// enumeration should stop (emit returned false).
func (ex *exec) run(d int) (bool, error) {
	its := ex.byVar[d]
	for _, it := range its {
		it.Open()
	}
	defer func() {
		for _, it := range its {
			it.Up()
		}
	}()
	lf := leapfrog{its: its, seeks: &ex.seeks}
	if !lf.init() {
		return true, nil
	}
	if ex.lo != nil && ex.lo[d] > 0 {
		if !lf.seek(ex.lo[d]) {
			return true, nil
		}
	}
	for {
		if err := ex.tick.Tick(); err != nil {
			return false, err
		}
		key := lf.key
		if ex.hi != nil && key >= ex.hi[d] {
			return true, nil
		}
		ex.binding[d] = key
		if !ex.residualsOK(d) {
			if !lf.next() {
				return true, nil
			}
			continue
		}
		if d == ex.last {
			// Deepest emitted level: one existence probe below it replaces
			// the full sub-enumeration — this is the early duplicate
			// elimination, and it reports each binding down to here once.
			found := true
			if d < ex.n-1 {
				var err error
				if found, err = ex.exists(d + 1); err != nil {
					return false, err
				}
			}
			if found && !ex.output() {
				return false, nil
			}
		} else {
			cont, err := ex.run(d + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		if !lf.next() {
			return true, nil
		}
	}
}

// exists reports whether any full binding extends the current prefix through
// depths d..n-1, respecting bounds and residual predicates; it stops at the
// first witness.
func (ex *exec) exists(d int) (bool, error) {
	its := ex.byVar[d]
	for _, it := range its {
		it.Open()
	}
	defer func() {
		for _, it := range its {
			it.Up()
		}
	}()
	lf := leapfrog{its: its, seeks: &ex.seeks}
	if !lf.init() {
		return false, nil
	}
	if ex.lo != nil && ex.lo[d] > 0 {
		if !lf.seek(ex.lo[d]) {
			return false, nil
		}
	}
	for {
		if err := ex.tick.Tick(); err != nil {
			return false, err
		}
		key := lf.key
		if ex.hi != nil && key >= ex.hi[d] {
			return false, nil
		}
		ex.binding[d] = key
		if ex.residualsOK(d) {
			if d == ex.n-1 {
				return true, nil
			}
			found, err := ex.exists(d + 1)
			if err != nil || found {
				return found, err
			}
		}
		if !lf.next() {
			return false, nil
		}
	}
}

// output reports the current binding: into the group sink when the GAO does
// not enumerate in output order, else straight to emit.
func (ex *exec) output() bool {
	if ex.sink != nil {
		return ex.sink.Add(ex.binding)
	}
	ex.outputs++
	if ex.emit == nil {
		return true
	}
	if ex.out == nil {
		ex.out = make([]int64, len(ex.emitPos))
	}
	for i, g := range ex.emitPos {
		ex.out[i] = ex.binding[g]
	}
	return ex.emit(ex.out)
}

// leapfrog is the multiway sorted intersection of one trie level across the
// participating atoms (Veldhuizen's leapfrog-init/search/next).
type leapfrog struct {
	its   []*relation.OverlayCursor
	p     int
	key   int64
	seeks *int64
}

// init sorts the iterators by key and finds the first match. It returns
// false if the intersection is empty.
func (lf *leapfrog) init() bool {
	for _, it := range lf.its {
		if it.AtEnd() {
			return false
		}
	}
	// Insertion sort by current key; the lists are tiny.
	for i := 1; i < len(lf.its); i++ {
		for j := i; j > 0 && lf.its[j].Key() < lf.its[j-1].Key(); j-- {
			lf.its[j], lf.its[j-1] = lf.its[j-1], lf.its[j]
		}
	}
	lf.p = 0
	return lf.search()
}

// search advances iterators until all agree on a key.
func (lf *leapfrog) search() bool {
	k := len(lf.its)
	max := lf.its[(lf.p+k-1)%k].Key()
	for {
		it := lf.its[lf.p]
		x := it.Key()
		if x == max {
			lf.key = x
			return true
		}
		it.SeekGE(max)
		*lf.seeks++
		if it.AtEnd() {
			return false
		}
		max = it.Key()
		lf.p = (lf.p + 1) % k
	}
}

// next moves past the current match.
func (lf *leapfrog) next() bool {
	it := lf.its[lf.p]
	it.Next()
	if it.AtEnd() {
		return false
	}
	lf.p = (lf.p + 1) % len(lf.its)
	return lf.search()
}

// seek positions the intersection at the least match >= v.
func (lf *leapfrog) seek(v int64) bool {
	if lf.key >= v {
		return true
	}
	it := lf.its[lf.p]
	it.SeekGE(v)
	*lf.seeks++
	if it.AtEnd() {
		return false
	}
	lf.p = (lf.p + 1) % len(lf.its)
	return lf.search()
}
