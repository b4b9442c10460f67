// Package pairwise implements the conventional RDBMS baseline the paper
// compares against (§5.1: PostgreSQL, MonetDB): binary hash joins over
// materialized intermediates, ordered either by a Selinger-style
// dynamic-programming optimizer with textbook cardinality estimation
// (the "psql" flavor) or by a greedy smallest-first bulk order (the
// "monetdb" flavor). On cyclic graph patterns these plans materialize the
// enormous intermediate results of edge self-joins — exactly the
// asymptotic suboptimality (Ω(√N) factor) the paper attributes to
// pairwise optimizers.
package pairwise

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Flavor selects the join-order strategy.
type Flavor int

const (
	// DP is Selinger-style dynamic programming over connected subsets
	// (the PostgreSQL stand-in).
	DP Flavor = iota
	// Greedy joins the two cheapest-estimate relations first and then
	// repeatedly folds in the atom minimizing the next intermediate
	// (the MonetDB stand-in: bulk operator-at-a-time processing).
	Greedy
)

// ErrMemoryExceeded reports that an intermediate result outgrew the
// configured budget — the reproduction's stand-in for the thrashing and
// OOM conditions the paper marks in Tables 6–7.
var ErrMemoryExceeded = errors.New("pairwise: intermediate result exceeds memory budget")

// Options configure the engine.
type Options struct {
	Flavor Flavor
	// MaxRows caps any intermediate's row count (0 = default 30M).
	MaxRows int
}

// Engine is the pairwise-join baseline.
type Engine struct {
	Opts Options
}

const defaultMaxRows = 30_000_000

// Count returns the number of result tuples of the natural join q,
// materialising every intermediate.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	res, err := e.join(ctx, q, db)
	if err != nil {
		return 0, err
	}
	return int64(res.count()), nil
}

// table is a materialized intermediate with a variable schema.
type table struct {
	schema []string
	rows   []int64
}

func (t *table) count() int {
	if len(t.schema) == 0 {
		return 0
	}
	return len(t.rows) / len(t.schema)
}

func (t *table) row(i int) []int64 {
	w := len(t.schema)
	return t.rows[i*w : (i+1)*w]
}

// join plans and executes the full query, returning the materialized result.
func (e Engine) join(ctx context.Context, q *query.Query, db *core.DB) (*table, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Atoms) > 20 {
		return nil, fmt.Errorf("pairwise: too many atoms (%d)", len(q.Atoms))
	}
	base := make([]*table, len(q.Atoms))
	stats := make([]stat, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := db.Relation(a.Rel)
		if err != nil {
			return nil, err
		}
		if r.Arity() != len(a.Vars) {
			return nil, fmt.Errorf("pairwise: atom %s arity mismatch with %s", a, r)
		}
		base[i] = baseTable(a, r)
		stats[i] = statFor(a, r)
	}
	order, err := e.planOrder(q, stats)
	if err != nil {
		return nil, err
	}
	maxRows := e.Opts.MaxRows
	if maxRows <= 0 {
		maxRows = defaultMaxRows
	}
	tick := core.NewTicker(ctx)
	cur := base[order[0]]
	for _, ai := range order[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := hashJoin(cur, base[ai], maxRows, tick)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func baseTable(a query.Atom, r *relation.Relation) *table {
	t := &table{schema: append([]string(nil), a.Vars...)}
	t.rows = make([]int64, 0, r.Len()*r.Arity())
	for i := 0; i < r.Len(); i++ {
		t.rows = append(t.rows, r.Tuple(i)...)
	}
	return t
}

// stat carries the optimizer statistics for one atom: cardinality and
// per-variable distinct counts.
type stat struct {
	card     float64
	distinct map[string]float64
}

func statFor(a query.Atom, r *relation.Relation) stat {
	s := stat{card: float64(r.Len()), distinct: make(map[string]float64, len(a.Vars))}
	for col, v := range a.Vars {
		if col == 0 {
			s.distinct[v] = float64(r.DistinctPrefixes(1))
			continue
		}
		// Distinct count of a non-leading column: estimate via a small exact
		// scan (relations are modest in this reproduction).
		seen := make(map[int64]struct{})
		for i := 0; i < r.Len(); i++ {
			seen[r.Value(i, col)] = struct{}{}
		}
		s.distinct[v] = float64(len(seen))
	}
	return s
}

// estJoin is the System R textbook estimate: |L ⋈ R| = |L|·|R| / Π_v
// max(d_L(v), d_R(v)) over shared variables v.
func estJoin(l, r stat) stat {
	out := stat{card: l.card * r.card, distinct: make(map[string]float64, len(l.distinct)+len(r.distinct))}
	for v, d := range l.distinct {
		out.distinct[v] = d
	}
	for v, d := range r.distinct {
		if d2, ok := out.distinct[v]; ok {
			m := math.Max(d, d2)
			if m > 0 {
				out.card /= m
			}
			out.distinct[v] = math.Min(d, d2)
		} else {
			out.distinct[v] = d
		}
	}
	for v := range out.distinct {
		out.distinct[v] = math.Min(out.distinct[v], math.Max(out.card, 1))
	}
	return out
}

func shares(a, b stat) bool {
	for v := range a.distinct {
		if _, ok := b.distinct[v]; ok {
			return true
		}
	}
	return false
}

// planOrder returns the join order as a sequence of atom indices (left-deep).
func (e Engine) planOrder(q *query.Query, stats []stat) ([]int, error) {
	if len(q.Atoms) == 1 {
		return []int{0}, nil
	}
	if e.Opts.Flavor == Greedy {
		return greedyOrder(stats), nil
	}
	return dpOrder(stats), nil
}

// greedyOrder mimics bulk column-store execution: start from the smallest
// base relation, then repeatedly fold in the connected atom whose join
// estimate is smallest (cross products only when forced).
func greedyOrder(stats []stat) []int {
	m := len(stats)
	start := 0
	for i := 1; i < m; i++ {
		if stats[i].card < stats[start].card {
			start = i
		}
	}
	order := []int{start}
	used := make([]bool, m)
	used[start] = true
	cur := stats[start]
	for len(order) < m {
		best, bestCard := -1, math.Inf(1)
		connectedOnly := false
		for i := 0; i < m; i++ {
			if !used[i] && shares(cur, stats[i]) {
				connectedOnly = true
				break
			}
		}
		for i := 0; i < m; i++ {
			if used[i] || (connectedOnly && !shares(cur, stats[i])) {
				continue
			}
			if est := estJoin(cur, stats[i]); est.card < bestCard {
				bestCard = est.card
				best = i
			}
		}
		used[best] = true
		order = append(order, best)
		cur = estJoin(cur, stats[best])
	}
	return order
}

// dpOrder is Selinger DP over subsets restricted to left-deep plans with
// connected extensions where possible; cost is the sum of intermediate
// cardinalities.
func dpOrder(stats []stat) []int {
	m := len(stats)
	type entry struct {
		cost  float64
		est   stat
		order []int
		ok    bool
	}
	dp := make([]entry, 1<<m)
	for i := 0; i < m; i++ {
		dp[1<<i] = entry{cost: 0, est: stats[i], order: []int{i}, ok: true}
	}
	for mask := 1; mask < 1<<m; mask++ {
		if !dp[mask].ok {
			continue
		}
		cur := dp[mask]
		// Prefer connected extensions; fall back to cross products only if
		// no connected atom remains.
		anyConnected := false
		for i := 0; i < m; i++ {
			if mask&(1<<i) == 0 && shares(cur.est, stats[i]) {
				anyConnected = true
				break
			}
		}
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			if anyConnected && !shares(cur.est, stats[i]) {
				continue
			}
			est := estJoin(cur.est, stats[i])
			cost := cur.cost + est.card
			next := mask | 1<<i
			if !dp[next].ok || cost < dp[next].cost {
				order := make([]int, len(cur.order)+1)
				copy(order, cur.order)
				order[len(cur.order)] = i
				dp[next] = entry{cost: cost, est: est, order: order, ok: true}
			}
		}
	}
	return dp[(1<<m)-1].order
}

// hashJoin materializes l ⋈ r, enforcing the row budget.
func hashJoin(l, r *table, maxRows int, tick *core.Ticker) (*table, error) {
	// Build on the smaller side.
	if l.count() > r.count() {
		l, r = r, l
	}
	shared, rOnly := splitSchema(l.schema, r.schema)
	out := &table{schema: append(append([]string(nil), l.schema...), rOnly.names...)}

	// Key extraction positions.
	lPos := make([]int, len(shared.l))
	copy(lPos, shared.l)
	build := make(map[string][]int32, l.count())
	keyBuf := make([]byte, 0, len(lPos)*8)
	for i := 0; i < l.count(); i++ {
		row := l.row(i)
		keyBuf = keyBuf[:0]
		for _, p := range lPos {
			keyBuf = appendInt64(keyBuf, row[p])
		}
		build[string(keyBuf)] = append(build[string(keyBuf)], int32(i))
	}
	for j := 0; j < r.count(); j++ {
		if err := tick.Tick(); err != nil {
			return nil, err
		}
		row := r.row(j)
		keyBuf = keyBuf[:0]
		for _, p := range shared.r {
			keyBuf = appendInt64(keyBuf, row[p])
		}
		for _, i := range build[string(keyBuf)] {
			out.rows = append(out.rows, l.row(int(i))...)
			for _, p := range rOnly.pos {
				out.rows = append(out.rows, row[p])
			}
			if out.count() > maxRows {
				return nil, ErrMemoryExceeded
			}
		}
	}
	return out, nil
}

func appendInt64(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

type sharedCols struct {
	l, r []int
}

type extraCols struct {
	names []string
	pos   []int
}

// splitSchema computes the shared-variable key columns and the right-only
// payload columns.
func splitSchema(ls, rs []string) (sharedCols, extraCols) {
	lIdx := make(map[string]int, len(ls))
	for i, v := range ls {
		lIdx[v] = i
	}
	var sh sharedCols
	var ex extraCols
	for j, v := range rs {
		if i, ok := lIdx[v]; ok {
			sh.l = append(sh.l, i)
			sh.r = append(sh.r, j)
		} else {
			ex.names = append(ex.names, v)
			ex.pos = append(ex.pos, j)
		}
	}
	return sh, ex
}
