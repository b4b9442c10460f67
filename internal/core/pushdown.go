package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/relation"
)

// VarBound is a half-open interval [Lo, Hi) of admissible values for one GAO
// depth, compiled from the query's constant comparison predicates. Engines
// push it into the trie cursors as a seek bound (SeekGE to Lo, stop at Hi)
// instead of post-filtering.
type VarBound struct {
	Lo, Hi int64
}

// Trivial reports whether the bound admits the whole storage domain.
func (b VarBound) Trivial() bool { return b.Lo <= 0 && b.Hi >= relation.PosInf }

// ResidualPred is a comparison predicate that cannot be expressed as a
// per-depth seek bound (it spans two variables, or is a disequality),
// compiled to GAO positions. It is checked as soon as both sides are bound.
type ResidualPred struct {
	LPos int         // GAO position of the left variable
	Op   query.CmpOp // comparison operator
	RPos int         // GAO position of the right variable, -1 for a constant
	RVal int64       // constant right-hand side when RPos == -1
	// Depth is the deepest GAO position the predicate reads; the binding
	// prefix [0..Depth] decides it.
	Depth int
}

// Eval evaluates the predicate against a (partial) binding in GAO order.
// binding must cover Depth.
func (r ResidualPred) Eval(binding []int64) bool {
	l := binding[r.LPos]
	rv := r.RVal
	if r.RPos >= 0 {
		rv = binding[r.RPos]
	}
	switch r.Op {
	case query.OpEq:
		return l == rv
	case query.OpNe:
		return l != rv
	case query.OpLt:
		return l < rv
	case query.OpLe:
		return l <= rv
	case query.OpGt:
		return l > rv
	case query.OpGe:
		return l >= rv
	}
	return false
}

// Pushdown is the compiled selection/projection shape of an extended query
// under a concrete GAO. A nil *Pushdown means plain natural-join execution.
type Pushdown struct {
	// Bounds[d] restricts GAO depth d to [Lo, Hi); nil when every depth is
	// unrestricted.
	Bounds []VarBound
	// Residuals are the predicates left to evaluate during enumeration,
	// ordered by Depth so engines can check each at the shallowest level
	// that binds it.
	Residuals []ResidualPred
	// Emit, for projected and aggregate queries, lists the GAO positions of
	// the emitted columns (q.Emitted()) in output order; their rows are
	// distinct and ascend lexicographically in that order under every GAO.
	// nil means full bindings in q.Vars() order, enumerated in GAO order.
	Emit []int
	// Keys is the number of leading Emit columns the GAO itself enumerates
	// in output order (hypergraph.OutputShape). When Keys == len(Emit) the
	// engine streams: it binds down to the deepest emitted level, replaces
	// everything below with one existence probe, and emits. Otherwise it
	// hands each such binding to a GroupSink, which restores the order of
	// the remaining columns one key group at a time.
	Keys int
}

// Buffered reports whether execution needs a GroupSink.
func (ps *Pushdown) Buffered() bool { return ps != nil && ps.Keys < len(ps.Emit) }

// EmitDepth returns the number of leading GAO levels a run over n variables
// binds before a row is decided: through the deepest emitted column. Levels
// below only need a witness.
func (ps *Pushdown) EmitDepth(n int) int {
	if ps == nil || ps.Emit == nil {
		return n
	}
	return slices.Max(ps.Emit) + 1
}

// EmitPositions appends to dst, for each column of an engine row, the GAO
// position it is read from: the compiled Emit of a projected or aggregate
// query, else the position of every q.Vars() variable.
func EmitPositions(dst []int, q *query.Query, gao []string, ps *Pushdown) []int {
	if ps != nil && ps.Emit != nil {
		return append(dst, ps.Emit...)
	}
	for _, v := range q.Vars() {
		dst = append(dst, slices.Index(gao, v))
	}
	return dst
}

// GroupSink restores the output contract under a GAO that does not enumerate
// the emitted columns in output order (Pushdown.Buffered). The engine adds
// every binding of the leading EmitDepth levels, in GAO order; bindings that
// agree on the Keys columns arrive together, so the sink buffers only their
// remaining columns, and at each group boundary sorts them, drops
// duplicates, and forwards the rows — memory is bounded by the largest
// group. The zero value is ready for Reset; buffers are kept across groups
// and across Resets, so a pooled sink allocates nothing in steady state.
type GroupSink struct {
	emit    []int
	keys    int
	forward func([]int64) bool // nil: count only
	stopped bool               // forward returned false: the run is over
	open    bool               // cur holds the key of a group being buffered
	cur     []int64            // key columns of the open group
	buf     []int64            // non-key columns of its bindings, row after row
	row     []int64            // the row handed to forward
	// Rows is the number of distinct rows forwarded since Reset.
	Rows int64
}

// Reset readies the sink for one run under ps; forward receives each output
// row (a slice the sink reuses) and returns false to stop the run. A nil
// forward only counts rows.
func (s *GroupSink) Reset(ps *Pushdown, forward func([]int64) bool) {
	s.emit, s.keys, s.forward = ps.Emit, ps.Keys, forward
	s.stopped, s.open, s.Rows = false, false, 0
	s.cur = append(s.cur[:0], make([]int64, ps.Keys)...)
	s.row = append(s.row[:0], make([]int64, len(ps.Emit))...)
	s.buf = s.buf[:0]
}

// Release drops the run's references so a pooled sink pins neither the plan
// nor the consumer.
func (s *GroupSink) Release() { s.emit, s.forward = nil, nil }

// Add takes one binding (in GAO order). It returns false when forward
// stopped the run.
func (s *GroupSink) Add(binding []int64) bool {
	same := s.open
	for i := 0; same && i < s.keys; i++ {
		same = binding[s.emit[i]] == s.cur[i]
	}
	if !same {
		if !s.Flush() {
			return false
		}
		s.open = true
		for i := range s.cur {
			s.cur[i] = binding[s.emit[i]]
		}
	}
	for _, g := range s.emit[s.keys:] {
		s.buf = append(s.buf, binding[g])
	}
	return true
}

// Flush forwards the open group, if any; engines call it once after the last
// Add. It returns false when forward stopped the run, now or earlier.
func (s *GroupSink) Flush() bool {
	if !s.open {
		return !s.stopped
	}
	s.open = false
	w := len(s.emit) - s.keys
	if w == 1 {
		slices.Sort(s.buf)
	} else {
		sort.Sort((*sinkRows)(s))
	}
	copy(s.row, s.cur)
	tail := s.row[s.keys:]
	for i := 0; i < len(s.buf); i += w {
		r := s.buf[i : i+w]
		if i > 0 && slices.Equal(r, tail) {
			continue
		}
		copy(tail, r)
		s.Rows++
		if s.forward != nil && !s.forward(s.row) {
			s.stopped = true
			break
		}
	}
	s.buf = s.buf[:0]
	return !s.stopped
}

// sinkRows sorts a sink's buffered rows in place.
type sinkRows GroupSink

func (s *sinkRows) width() int { return len(s.emit) - s.keys }
func (s *sinkRows) Len() int   { return len(s.buf) / s.width() }
func (s *sinkRows) Less(i, j int) bool {
	w := s.width()
	return slices.Compare(s.buf[i*w:(i+1)*w], s.buf[j*w:(j+1)*w]) < 0
}
func (s *sinkRows) Swap(i, j int) {
	w := s.width()
	a, b := s.buf[i*w:(i+1)*w], s.buf[j*w:(j+1)*w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// ResidualsAt returns the residual predicates decided exactly at depth d.
func (ps *Pushdown) ResidualsAt(d int) []ResidualPred {
	if ps == nil {
		return nil
	}
	lo := 0
	for lo < len(ps.Residuals) && ps.Residuals[lo].Depth < d {
		lo++
	}
	hi := lo
	for hi < len(ps.Residuals) && ps.Residuals[hi].Depth == d {
		hi++
	}
	return ps.Residuals[lo:hi]
}

func incSat(v int64) int64 {
	if v == math.MaxInt64 {
		return v
	}
	return v + 1
}

// CompilePushdown compiles a query's predicates and projection against a
// concrete GAO. Constant comparisons other than != become per-depth seek
// bounds; disequalities and variable-variable comparisons become residual
// filters. Projected and aggregate queries get their Emit/Keys shape, which
// any permutation of the variables admits: the output order is restored by a
// GroupSink wherever the GAO does not provide it.
func CompilePushdown(q *query.Query, gao []string) (*Pushdown, error) {
	if !q.Extended() {
		return nil, nil
	}
	pos := make(map[string]int, len(gao))
	for i, v := range gao {
		pos[v] = i
	}
	bounds := make([]VarBound, len(gao))
	for i := range bounds {
		bounds[i] = VarBound{Lo: 0, Hi: relation.PosInf}
	}
	var residuals []ResidualPred
	for _, p := range q.Preds {
		lp, ok := pos[p.Left]
		if !ok {
			return nil, fmt.Errorf("core: predicate %s over variable outside the GAO %v: %w", p, gao, ErrUnboundVar)
		}
		if !p.IsVar {
			if p.Op == query.OpNe {
				residuals = append(residuals, ResidualPred{LPos: lp, Op: p.Op, RPos: -1, RVal: p.Const, Depth: lp})
				continue
			}
			b := &bounds[lp]
			switch p.Op {
			case query.OpEq:
				b.Lo = max(b.Lo, p.Const)
				b.Hi = min(b.Hi, incSat(p.Const))
			case query.OpLt:
				b.Hi = min(b.Hi, p.Const)
			case query.OpLe:
				b.Hi = min(b.Hi, incSat(p.Const))
			case query.OpGt:
				b.Lo = max(b.Lo, incSat(p.Const))
			case query.OpGe:
				b.Lo = max(b.Lo, p.Const)
			default:
				return nil, fmt.Errorf("core: unknown comparison operator %q", p.Op)
			}
			continue
		}
		rp, ok := pos[p.Right]
		if !ok {
			return nil, fmt.Errorf("core: predicate %s over variable outside the GAO %v: %w", p, gao, ErrUnboundVar)
		}
		if !query.ValidOp(p.Op) {
			return nil, fmt.Errorf("core: unknown comparison operator %q", p.Op)
		}
		residuals = append(residuals, ResidualPred{LPos: lp, Op: p.Op, RPos: rp, Depth: max(lp, rp)})
	}
	any := false
	for _, b := range bounds {
		if !b.Trivial() {
			any = true
			break
		}
	}
	if !any {
		bounds = nil
	}
	ps := &Pushdown{Bounds: bounds}
	if q.PrefixOrdered() {
		ps.Keys, ps.Emit = hypergraph.OutputShape(q, gao)
	}
	// Order residuals by depth so engines can slice them per level.
	for i := 1; i < len(residuals); i++ {
		for j := i; j > 0 && residuals[j-1].Depth > residuals[j].Depth; j-- {
			residuals[j-1], residuals[j] = residuals[j], residuals[j-1]
		}
	}
	if bounds == nil && residuals == nil && ps.Emit == nil {
		return nil, nil
	}
	ps.Residuals = residuals
	return ps, nil
}
