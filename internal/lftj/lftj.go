// Package lftj implements Leapfrog Triejoin (paper §2.2, [15]), the
// worst-case-optimal multiway join that LogicBlox ships: variables are bound
// one at a time in a global attribute order, and at each variable the
// participating atoms' trie iterators "leapfrog" over each other in a
// multiway sorted intersection. Runtime is Õ(N + AGM(Q)).
package lftj

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	ex := takeFrame()
	defer ex.release()
	if err := ex.reset(ctx, plan, gen, r, emit); err != nil {
		return 0, err
	}
	if emit == nil {
		ex.resetMemo(plan)
	}
	_, err := ex.run(0)
	if ex.buffered {
		if err == nil {
			ex.sink.Flush()
		}
		ex.outputs = ex.sink.Rows
	}
	sc.Add(core.Stats{Outputs: ex.outputs, Seeks: ex.seeks, ReuseHits: ex.reuseHits, MemoStores: ex.memoStores})
	if err != nil {
		return 0, err
	}
	return ex.outputs, nil
}

// Seeker counts the seeks of plan on gen in count mode, as Run would: the
// price engine.Compile compares attribute orders by. Its runs share one
// frame and so one count memo, as within a single run: a subtree counted in
// one is a memo hit in the next. Close releases the frame.
type Seeker struct {
	plan *core.Plan
	gen  *core.Generation
	ex   *frame
}

// NewSeeker returns a Seeker of plan on gen.
func NewSeeker(plan *core.Plan, gen *core.Generation) *Seeker {
	ex := takeFrame()
	ex.resetMemo(plan)
	return &Seeker{plan: plan, gen: gen, ex: ex}
}

// Seeks counts over the first-variable values in r and returns the seeks
// it makes. It gives up once they pass limit, or once its steps pass
// core.TicksPerSeek times limit (both checked every core.CheckEvery steps),
// and then returns a count past limit.
func (s *Seeker) Seeks(r core.Range, limit int64) (int64, error) {
	ex := s.ex
	if err := ex.reset(context.Background(), s.plan, s.gen, r, nil); err != nil {
		return 0, err
	}
	ex.tick.Limit(&ex.seeks, limit)
	if _, err := ex.run(0); err != nil {
		if !errors.Is(err, core.ErrOverBudget) {
			return 0, err
		}
		return max(ex.seeks, limit+1), nil
	}
	return ex.seeks, nil
}

// Close returns the Seeker's frame.
func (s *Seeker) Close() { s.ex.release() }

// frame is one execution's state: the run's parameters, the binding, the
// per-depth bounds and residuals, one cursor per atom, the members of every
// depth's leapfrog, the output row, the group sink and the count memo.
// Frames live in a sync.Pool: a run takes one, resets it (lengths set,
// capacity kept) and gives it back, so steady-state executions allocate
// nothing here and every concurrent execution has its own. An idle frame is
// the garbage collector's to drop, all but the one most recently released,
// which hotFrame keeps.
type frame struct {
	n     int
	last  int // deepest level a row reads; below it one witness suffices
	byVar [][]member
	// members backs byVar; cursors holds one cursor per atom, which the
	// members of the atom's depths share.
	members  []member
	cursors  []relation.OverlayCursor
	binding  []int64
	emitPos  []int              // GAO position of each emitted column
	emit     func([]int64) bool // nil: count only
	buffered bool               // rows go through sink (core.Pushdown.Buffered)
	span     bool               // count mode sizes the deepest level (countLeaf)
	sink     core.GroupSink
	tick     core.Ticker
	lo, hi   []int64               // per-depth seek bounds [lo, hi); nil when unbounded
	bounds   []int64               // backs lo and hi
	resAt    [][]core.ResidualPred // residual predicates decided at each depth; empty when none
	// memo[d] holds depth d's subtree counts by the value at memoKey[d]:
	// core.Plan.Memo in count mode (resetMemo), else nil.
	memoKey    []int
	memo       []core.MemoTable
	out        []int64
	outputs    int64
	seeks      int64
	reuseHits  int64
	memoStores int64
}

var frames = sync.Pool{New: func() any { return new(frame) }}

// hotFrame holds the most recently released frame by a strong reference: a
// sync.Pool alone loses a frame parked in another P's private slot and
// empties within two collections, and the next execution would regrow it.
var hotFrame atomic.Pointer[frame]

func takeFrame() *frame {
	if ex := hotFrame.Swap(nil); ex != nil {
		return ex
	}
	return frames.Get().(*frame)
}

// reset prepares the frame for a run of plan on gen over r.
func (ex *frame) reset(ctx context.Context, plan *core.Plan, gen *core.Generation, r core.Range, emit func([]int64) bool) error {
	gao, push, atoms := plan.GAO, plan.Push, plan.Atoms
	n := len(gao)
	ex.n, ex.last, ex.emit = n, push.EmitDepth(n)-1, emit
	ex.outputs, ex.seeks, ex.reuseHits, ex.memoStores = 0, 0, 0, 0
	ex.tick = *core.NewTicker(ctx)
	ex.binding = zeroed(ex.binding, n)
	ex.emitPos = core.EmitPositions(ex.emitPos[:0], plan.Query, gao, push)
	ex.out = zeroed(ex.out, len(ex.emitPos))
	if ex.buffered = push.Buffered(); ex.buffered {
		ex.sink.Reset(push, emit)
	}
	// Fold the compiled seek bounds and the first-variable range into one
	// per-depth [lo, hi) table; residual predicates are bucketed by the
	// depth that decides them.
	ex.lo, ex.hi = nil, nil
	if bounded := push != nil && push.Bounds != nil; bounded || r != core.FullRange {
		ex.bounds = zeroed(ex.bounds, 2*n)
		ex.lo, ex.hi = ex.bounds[:n:n], ex.bounds[n:]
		if bounded {
			for d, b := range push.Bounds {
				ex.lo[d], ex.hi[d] = b.Lo, b.Hi
			}
		} else {
			for d := range ex.hi {
				ex.hi[d] = relation.PosInf
			}
		}
		if r != core.FullRange {
			ex.lo[0] = max(ex.lo[0], r.Lo)
			ex.hi[0] = min(ex.hi[0], r.Hi)
		}
	}
	ex.resAt = ex.resAt[:0]
	if push != nil && len(push.Residuals) > 0 {
		ex.resAt = zeroed(ex.resAt, n)
		for d := range ex.resAt {
			ex.resAt[d] = push.ResidualsAt(d)
		}
	}
	// One cursor per atom (grown in place, so each keeps its buffers), and
	// for each GAO depth a member per participating atom, in atom order.
	if have := cap(ex.cursors); have < len(atoms) {
		ex.cursors = append(ex.cursors[:have], make([]relation.OverlayCursor, len(atoms)-have)...)
	}
	ex.cursors = ex.cursors[:len(atoms)]
	width := 0
	for i, a := range atoms {
		ex.cursors[i].Reset(gen.Overlay(a.Index))
		width += len(a.VarPos)
	}
	ex.members = zeroed(ex.members, width)
	ex.byVar = zeroed(ex.byVar, n)
	off := 0
	for d := range ex.byVar {
		from := off
		for i, a := range atoms {
			for _, p := range a.VarPos {
				if p == d {
					ex.members[off].c = &ex.cursors[i]
					off++
				}
			}
		}
		if off == from {
			return fmt.Errorf("lftj: variable %s (depth %d) not bound by any atom: %w", gao[d], d, core.ErrUnboundVar)
		}
		ex.byVar[d] = ex.members[from:off:off]
	}
	ex.span = emit == nil && !ex.buffered && ex.last == n-1 && len(ex.byVar[n-1]) == 1 &&
		(len(ex.resAt) == 0 || len(ex.resAt[n-1]) == 0)
	return nil
}

// resetMemo turns on plan's count memo (core.Plan.Memo), empty: a count
// calls it after reset.
func (ex *frame) resetMemo(plan *core.Plan) {
	if ex.memoKey = plan.Memo; ex.memoKey == nil {
		return
	}
	if have := cap(ex.memo); have < len(plan.Memo) {
		ex.memo = append(ex.memo[:have], make([]core.MemoTable, len(plan.Memo)-have)...)
	}
	ex.memo = ex.memo[:len(plan.Memo)]
	for d, p := range plan.Memo {
		if p >= 0 {
			ex.memo[d].Reset(1)
		}
	}
}

// zeroed returns buf resized to n zero values, reusing its storage when it
// can.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// release drops the run's references — the consumer, the context, the
// plan's residuals and every overlay and trie of the run's generation — and
// returns the frame to the pool, so a pooled frame never pins a superseded
// generation. Memo tables past core.MaxPooledFrame go to the collector.
func (ex *frame) release() {
	ex.emit, ex.memoKey = nil, nil
	if core.MemoBytes(ex.memo) > core.MaxPooledFrame {
		ex.memo = nil
	}
	ex.tick = core.Ticker{}
	ex.sink.Release()
	clear(ex.resAt)
	clear(ex.members)
	for i := range ex.cursors {
		ex.cursors[i].Reset(nil)
	}
	if !hotFrame.CompareAndSwap(nil, ex) {
		frames.Put(ex)
	}
}

// residualsOK evaluates the residual predicates decided at depth d against
// the binding prefix built so far.
func (ex *frame) residualsOK(d int) bool {
	if len(ex.resAt) == 0 {
		return true
	}
	for _, r := range ex.resAt[d] {
		if !r.Eval(ex.binding) {
			return false
		}
	}
	return true
}

// open descends every cursor of depth d and turns each member into a lane
// where its cursor reads the base trie alone.
func (ex *frame) open(d int) []member {
	ms := ex.byVar[d]
	for i := range ms {
		m := &ms[i]
		m.c.Open()
		m.vals, m.pos, m.hi, m.dir, _ = m.c.PureLevel()
	}
	return ms
}

// up returns every cursor of depth d to depth d-1.
func up(ms []member) {
	for i := range ms {
		ms[i].c.Up()
	}
}

// run executes the triejoin at GAO depth d; it returns false when
// enumeration should stop (emit returned false). At a memo depth of a count
// (core.Plan.Memo) each binding's subtree count is looked up by the value
// keying it, and counted below and stored only on a miss.
func (ex *frame) run(d int) (bool, error) {
	ms := ex.open(d)
	defer up(ms)
	if ex.span && d == ex.last {
		return true, ex.countLeaf(d, &ms[0])
	}
	var memo *core.MemoTable
	var by []int // the position keying memo
	if ex.memoKey != nil && ex.memoKey[d] >= 0 {
		memo, by = &ex.memo[d], ex.memoKey[d:d+1]
	}
	lf := leapfrog{ms: ms, seeks: &ex.seeks}
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
		} else if memo == nil {
			cont, err := ex.run(d + 1)
			if err != nil || !cont {
				return cont, err
			}
		} else if c, ok := memo.Get(by, ex.binding); ok {
			ex.outputs += c
			ex.reuseHits++
		} else {
			before := ex.outputs
			if _, err := ex.run(d + 1); err != nil {
				return false, err
			}
			memo.Put(by, ex.binding, ex.outputs-before)
			ex.memoStores++
		}
		if !lf.next() {
			return true, nil
		}
	}
}

// countLeaf counts the rows of the deepest level in count mode when one
// atom binds it and no residual is decided there: the level's keys inside
// its bounds, sized by OverlayCursor.CountLeaf without visiting one. It
// ticks once per prefix, and it makes the one seek a one-member leapfrog
// makes — to the lower bound, when the first key lies below it — so Seeks
// do not depend on which way a count went.
func (ex *frame) countLeaf(d int, m *member) error {
	if err := ex.tick.Tick(); err != nil {
		return err
	}
	if m.atEnd() {
		return nil
	}
	lo, hi := relation.NegInf, relation.PosInf
	if ex.lo != nil {
		lo, hi = ex.lo[d], ex.hi[d]
		if lo > 0 && m.key() < lo {
			ex.seeks++
		}
	}
	ex.outputs += m.c.CountLeaf(lo, hi)
	return nil
}

// exists reports whether any full binding extends the current prefix through
// depths d..n-1, respecting bounds and residual predicates; it stops at the
// first witness.
func (ex *frame) exists(d int) (bool, error) {
	ms := ex.open(d)
	defer up(ms)
	lf := leapfrog{ms: ms, seeks: &ex.seeks}
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
func (ex *frame) output() bool {
	if ex.buffered {
		return ex.sink.Add(ex.binding)
	}
	ex.outputs++
	if ex.emit == nil {
		return true
	}
	for i, g := range ex.emitPos {
		ex.out[i] = ex.binding[g]
	}
	return ex.emit(ex.out)
}

// member is one atom's cursor in the leapfrog of one depth. While the
// cursor reads its base trie alone (OverlayCursor.PureLevel) the member is
// a lane: the level's key array, a pointer to the cursor's own position in
// it and the end of its sibling range, moved by array arithmetic with no
// cursor call — a seek by the trie's rank directory on a first level that
// has one, by GallopGE elsewhere. Otherwise (pos nil) it goes through the
// cursor, which merges the overlay's live log. All of them make the same
// moves over the same keys, so the seek sequence does not depend on which
// one a member is, and the cursor rests where the lane left it when the
// next depth opens below it.
type member struct {
	c    *relation.OverlayCursor
	vals []int64
	pos  *int32 // nil: not a lane
	hi   int32
	dir  *relation.RankDir // a lane's first-level directory; nil: gallop
}

func (m *member) atEnd() bool {
	if m.pos != nil {
		return *m.pos >= m.hi
	}
	return m.c.AtEnd()
}

func (m *member) key() int64 {
	if m.pos != nil {
		return m.vals[*m.pos]
	}
	return m.c.Key()
}

func (m *member) next() {
	if m.pos != nil {
		if *m.pos < m.hi {
			*m.pos++
		}
		return
	}
	m.c.Next()
}

func (m *member) seekGE(v int64) {
	if m.pos != nil {
		if m.dir != nil {
			*m.pos = m.dir.SeekGE(*m.pos, v)
		} else {
			*m.pos = relation.GallopGE(m.vals, *m.pos, m.hi, v)
		}
		return
	}
	m.c.SeekGE(v)
}

// leapfrog is the multiway sorted intersection of one trie level across the
// participating atoms (Veldhuizen's leapfrog-init/search/next).
type leapfrog struct {
	ms    []member
	p     int
	key   int64
	seeks *int64
}

// init sorts the members by key and finds the first match. It returns false
// if the intersection is empty. The order is the depth's own and persists
// across its invocations within a run, as the seek counts assume.
func (lf *leapfrog) init() bool {
	for i := range lf.ms {
		if lf.ms[i].atEnd() {
			return false
		}
	}
	// Insertion sort by current key; the lists are tiny.
	for i := 1; i < len(lf.ms); i++ {
		for j := i; j > 0 && lf.ms[j].key() < lf.ms[j-1].key(); j-- {
			lf.ms[j], lf.ms[j-1] = lf.ms[j-1], lf.ms[j]
		}
	}
	lf.p = 0
	return lf.search()
}

// search advances members until all agree on a key.
func (lf *leapfrog) search() bool {
	prev := lf.p - 1
	if prev < 0 {
		prev = len(lf.ms) - 1
	}
	max := lf.ms[prev].key()
	for {
		m := &lf.ms[lf.p]
		x := m.key()
		if x == max {
			lf.key = x
			return true
		}
		m.seekGE(max)
		*lf.seeks++
		if m.atEnd() {
			return false
		}
		max = m.key()
		lf.advance()
	}
}

// next moves past the current match.
func (lf *leapfrog) next() bool {
	m := &lf.ms[lf.p]
	m.next()
	if m.atEnd() {
		return false
	}
	lf.advance()
	return lf.search()
}

// advance moves the turn to the next member, cyclically.
func (lf *leapfrog) advance() {
	if lf.p++; lf.p == len(lf.ms) {
		lf.p = 0
	}
}

// seek positions the intersection at the least match >= v.
func (lf *leapfrog) seek(v int64) bool {
	if lf.key >= v {
		return true
	}
	m := &lf.ms[lf.p]
	m.seekGE(v)
	*lf.seeks++
	if m.atEnd() {
		return false
	}
	lf.advance()
	return lf.search()
}
