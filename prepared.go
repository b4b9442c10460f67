package repro

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"strings"

	"repro/internal/agm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Prepared is a compiled query pinned against a store's physical design:
// Prepare validates the query once, fixes the global attribute order, binds
// the GAO-consistent indexes (§4.1), and selects the engine — so every
// subsequent Count, Enumerate, or Rows call is pure execution. This is the
// lifecycle the paper assumes of LogicBlox: plan once against a fixed
// physical design, execute repeatedly (including under the §3 incremental-
// maintenance workloads).
//
// A Prepared handle is safe for concurrent use: the plan is immutable, every
// execution builds its own iterator and memo state, and the stats collector
// is synchronized.
//
// Freshness: a handle follows every write. Incremental writes (Store.Apply,
// Store.ApplyAll) advance the handle's indexes in place and a bulk
// replacement (Store.Load) rebuilds them in place, so every later execution
// counts the post-write state; each single execution reads one consistent
// snapshot. No write evicts the handle's plan, so re-preparing the same
// shape is a plan-cache hit. To read one fixed state across several
// executions, use a ReadTxn.
type Prepared struct {
	s    *Store
	q    *Query
	opts engine.Options // Stats is the handle's own collector
	plan *core.Plan
	agg  *aggSpec
}

// prepare compiles the query against a store (schema checks already done by
// the callers). The compiled plan is cached on the store's database — keyed
// on query shape × algorithm × GAO and kept through every write — so
// preparing the same shape twice reuses the first compilation.
func prepare(s *Store, q *Query, opts Options) (*Prepared, error) {
	if sh := opts.Shard; sh != nil && sh.Part >= sh.Of {
		return nil, fmt.Errorf("repro: %w: shard part %d of %d out of range", ErrUnsupportedQuery, sh.Part, sh.Of)
	}
	engOpts := opts.engineOptions()
	engOpts.Stats = &core.StatsCollector{}
	plan, err := engine.Compile(engOpts, q, s.db)
	if err != nil {
		return nil, err
	}
	if lead := plan.GAO[0]; opts.Shard != nil && !q.PartitionedBy(lead) {
		return nil, fmt.Errorf("repro: query %q cannot be sharded on its leading attribute %q: %w (it is not an output column; lead the GAO with one)",
			q.Name, lead, ErrUnsupportedQuery)
	}
	return &Prepared{s: s, q: q, opts: engOpts, plan: plan, agg: newAggSpec(q)}, nil
}

var _ PreparedQuery = (*Prepared)(nil)

// Query returns the compiled query.
func (p *Prepared) Query() *Query { return p.q }

// Algorithm returns the engine the query was compiled for.
func (p *Prepared) Algorithm() string { return p.plan.Algorithm }

// Count executes the compiled plan and returns the number of result tuples.
// For aggregate queries that is the number of groups — one tuple per
// distinct binding of the output variables.
func (p *Prepared) Count(ctx context.Context) (int64, error) {
	return p.exec(ctx, nil, nil)
}

// Enumerate executes the compiled plan, streaming result tuples in output
// order: one value per q.Out() variable, then one per aggregate term (for
// plain queries that is q.Vars() order). emit returns false to stop early.
// The tuple slice is reused between calls — copy it to retain it.
func (p *Prepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	_, err := p.exec(ctx, nil, emit)
	return err
}

// startEngineSpan opens the engine-stage span for one execution, returning
// a finish callback that attaches the run's core.Stats deltas (seeks,
// probes, memo hits, outputs — the per-atom seek-loop counters the engines
// already batch into the collector) before ending the span. On an untraced
// context both the span and the callback are free.
func (p *Prepared) startEngineSpan(ctx context.Context, stage string) (context.Context, func()) {
	ctx, sp := trace.Start(ctx, stage)
	if sp == nil {
		return ctx, func() {}
	}
	sp.SetStr("algorithm", p.plan.Algorithm)
	before := p.opts.Stats.Snapshot()
	return ctx, func() {
		d := p.opts.Stats.Snapshot().Sub(before)
		sp.SetInt("outputs", d.Outputs)
		if d.Seeks != 0 {
			sp.SetInt("seeks", d.Seeks)
		}
		if d.Probes != 0 {
			sp.SetInt("probes", d.Probes)
			sp.SetInt("probe_memo_hits", d.ProbeMemoHits)
		}
		if d.ReuseHits != 0 {
			sp.SetInt("reuse_hits", d.ReuseHits)
		}
		sp.End()
	}
}

// exec runs the plan on generation gen: a transaction's snapshot, or, when
// nil, the generation current at the start of the execution. A nil emit
// counts: aggregate queries count groups, everything else uses the engine's
// count mode. A non-nil emit enumerates, folding the aggregation spec over
// the emission; its callers ignore the count.
func (p *Prepared) exec(ctx context.Context, gen *core.Generation, emit func([]int64) bool) (int64, error) {
	stage := "engine.count"
	if emit != nil {
		stage = "engine.enumerate"
	}
	ctx, finish := p.startEngineSpan(ctx, stage)
	defer finish()
	if p.agg != nil {
		run := func(e func([]int64) bool) error {
			_, err := engine.Run(ctx, p.plan, gen, &p.opts, e)
			return err
		}
		if emit == nil {
			return p.agg.count(run)
		}
		return 0, p.agg.run(run, emit)
	}
	return engine.Run(ctx, p.plan, gen, &p.opts, emit)
}

// Rows executes the compiled plan as a streaming iterator over result
// tuples, in the same output order as Enumerate. Each yielded slice is the
// consumer's own: it may be kept, modified and appended to, and no later row
// overwrites it. Breaking out of the range stops execution early. The sequence ends early if ctx is cancelled or the engine fails
// mid-stream; Rows discards that error, so callers that must distinguish a
// complete stream from a truncated one should use RowsErr (or Enumerate).
// The only mid-stream failure is cancellation, so checking ctx.Err() after
// the loop suffices.
func (p *Prepared) Rows(ctx context.Context) iter.Seq[[]int64] {
	return OwnedRows(ctx, p.Enumerate)
}

// RowsErr is Rows with an explicit error: it yields (tuple, nil) for every
// result and, if execution fails mid-stream, a final (nil, err) pair.
func (p *Prepared) RowsErr(ctx context.Context) iter.Seq2[[]int64, error] {
	return OwnedRowsErr(ctx, p.Enumerate)
}

// rowChunk hands a stream's consumer its rows: each is copied out of the
// engine's reused buffer into a chunk shared with its neighbours, so a stream
// costs one allocation per chunk (8 rows, doubling to 256) instead of one per
// row. A row is cut with its capacity clamped to its length, so appending to
// it reallocates and never writes into the next row; keeping one row alive
// keeps its chunk alive.
type rowChunk struct {
	buf  []int64
	rows int // rows in the chunk buf was cut from
}

func (c *rowChunk) own(t []int64) []int64 {
	n := len(t)
	if len(c.buf) < n {
		c.rows = min(max(2*c.rows, 8), 256)
		c.buf = make([]int64, c.rows*n)
	}
	row := c.buf[:n:n]
	c.buf = c.buf[n:]
	copy(row, t)
	return row
}

// OwnedRows adapts an Enumerate-shaped execution into a streaming iterator
// whose rows the consumer owns: each is copied out of the producer's reused
// buffer into a chunk shared with its neighbours (rowChunk), so a stream
// allocates once per chunk, not once per row. A mid-stream error is
// discarded; OwnedRowsErr reports it. Every local and routed Rows iterator
// is built on these two.
func OwnedRows(ctx context.Context, enumerate func(context.Context, func([]int64) bool) error) iter.Seq[[]int64] {
	return func(yield func([]int64) bool) {
		var rows rowChunk
		_ = enumerate(ctx, func(t []int64) bool {
			return yield(rows.own(t))
		})
	}
}

// OwnedRowsErr is OwnedRows with the explicit-error protocol: (tuple, nil)
// per result, and a final (nil, err) pair when execution fails before the
// consumer stopped.
func OwnedRowsErr(ctx context.Context, enumerate func(context.Context, func([]int64) bool) error) iter.Seq2[[]int64, error] {
	return func(yield func([]int64, error) bool) {
		var rows rowChunk
		stopped := false
		err := enumerate(ctx, func(t []int64) bool {
			ok := yield(rows.own(t), nil)
			stopped = !ok
			return ok
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Stats returns a snapshot of the unified execution counters accumulated by
// this handle: the planning block (plan-cache hits/misses, GAO derivations,
// index bindings) moves only at Prepare time; the execution block and the
// engine-specific counters accumulate across every Count/Enumerate/Rows run,
// for both engines.
func (p *Prepared) Stats() ExecStats { return p.opts.Stats.Snapshot() }

// Close implements PreparedQuery. A local prepared handle holds no resources
// beyond its plan (shared via the store's plan cache), so Close is a no-op;
// it exists so code written against PreparedQuery can release remote handles
// uniformly.
func (p *Prepared) Close() error { return nil }

// AtomPlan describes how one query atom is physically bound in a compiled
// plan.
type AtomPlan struct {
	// Atom is the atom's source form, e.g. "edge(a, b)".
	Atom string
	// Index is the GAO-consistent index serving the atom: the relation with
	// its columns in GAO order.
	Index string
	// Rows is the index's tuple count.
	Rows int
	// InSkeleton reports membership in Minesweeper's §4.9 skeleton (always
	// true for LFTJ).
	InSkeleton bool
}

// Explanation describes a compiled query: the fixed attribute order, the
// per-atom physical indexes, and the AGM worst-case output bound the
// worst-case-optimal engines are optimal against.
type Explanation struct {
	// Query is the query's source form.
	Query string
	// Algorithm is the selected engine.
	Algorithm string
	// GAO is the resolved global attribute order.
	GAO []string
	// UserGAO reports that the order was supplied through Options.GAO rather
	// than chosen by the planner.
	UserGAO bool
	// Score is the order's structural score — what the planner ranks
	// candidate orders by, field by field: cross-join levels, output
	// variables displaced from the key prefix, chain validity (Minesweeper
	// only), distance from the query's own variable order.
	Score GAOScore
	// RunnerUp is the best order the planner ranked below GAO, and
	// RunnerUpScore its score; nil when the order was user-supplied, had
	// no competitor or was priced.
	RunnerUp      []string
	RunnerUpScore GAOScore
	// Priced reports that GAO was chosen on the data: an LFTJ query without
	// a head prices its candidate orders by a sampled count and runs the
	// cheapest. Price is GAO's sampled price in leapfrog seeks, and
	// Structural and StructuralPrice are the structural order's
	// (hypergraph.ChooseGAO's, the one a router cuts on) and its price;
	// Orders is how many orders pricing ran.
	Priced          bool
	Price           int64
	Structural      []string
	StructuralPrice int64
	Orders          int
	// BetaCyclic reports whether the query needed Minesweeper's skeleton
	// split (and drives the §4.10 parallel-granularity default).
	BetaCyclic bool
	// Memo names the depths whose subtree counts an LFTJ count memoises,
	// each as "c by b": the count of the bindings below c is stored once per
	// value of b, and reused wherever b repeats.
	Memo []string
	// Atoms describes each atom's physical binding.
	Atoms []AtomPlan
	// Output names the result columns when the query projects or
	// aggregates: the head variables followed by the aggregate terms (nil
	// for plain full-binding queries).
	Output []string
	// Bounds renders the constant-predicate seek bounds pushed into the
	// trie cursors, one entry per constrained GAO variable.
	Bounds []string
	// Residuals renders the predicates that could not become seek bounds
	// and are evaluated as filters during enumeration.
	Residuals []string
	// Project names the columns engine rows are restricted to when the
	// query projects and the GAO enumerates them in output order: duplicates
	// are eliminated early, by an existence probe below the deepest of them.
	Project []string
	// Keys and Buffer split those columns when the GAO does not: bindings
	// arrive grouped by Keys, and the Buffer columns are sorted and
	// deduplicated once per group to restore the output order.
	Keys, Buffer []string
	// AGMBound is the Atserias–Grohe–Marx worst-case output bound on this
	// graph's relation sizes (0 when the LP is unavailable for the query).
	AGMBound float64
}

// String renders the explanation in a compact plan-tree-like layout.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s\n", e.Query)
	fmt.Fprintf(&b, "engine %s\n", e.Algorithm)
	fmt.Fprintf(&b, "gao %s", strings.Join(e.GAO, " < "))
	if e.BetaCyclic {
		b.WriteString("  [beta-cyclic]")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "score %s", scoreString(e.Score))
	switch {
	case e.UserGAO:
		b.WriteString("  [user order]")
	case e.RunnerUp != nil:
		fmt.Fprintf(&b, "  (runner-up %s: %s)", strings.Join(e.RunnerUp, " < "), scoreString(e.RunnerUpScore))
	}
	b.WriteString("\n")
	if e.Priced {
		fmt.Fprintf(&b, "priced %d seeks (structural %s: %d seeks; %d orders priced)\n",
			e.Price, strings.Join(e.Structural, " < "), e.StructuralPrice, e.Orders)
	}
	for _, a := range e.Atoms {
		skel := ""
		if !a.InSkeleton {
			skel = "  [off-skeleton]"
		}
		fmt.Fprintf(&b, "  %-24s -> %s (%d tuples)%s\n", a.Atom, a.Index, a.Rows, skel)
	}
	if len(e.Memo) > 0 {
		fmt.Fprintf(&b, "memo %s  [subtree counts]\n", strings.Join(e.Memo, ", "))
	}
	if len(e.Bounds) > 0 {
		fmt.Fprintf(&b, "pushdown %s\n", strings.Join(e.Bounds, ", "))
	}
	if len(e.Residuals) > 0 {
		fmt.Fprintf(&b, "residual %s\n", strings.Join(e.Residuals, ", "))
	}
	if len(e.Project) > 0 {
		fmt.Fprintf(&b, "project %s  [early dedup]\n", strings.Join(e.Project, ", "))
	}
	if len(e.Buffer) > 0 {
		fmt.Fprintf(&b, "keys %s | buffer %s  [sort+dedup per group]\n", strings.Join(e.Keys, ", "), strings.Join(e.Buffer, ", "))
	}
	if len(e.Output) > 0 {
		fmt.Fprintf(&b, "output %s\n", strings.Join(e.Output, ", "))
	}
	if e.AGMBound > 0 {
		fmt.Fprintf(&b, "agm bound %.4g\n", e.AGMBound)
	}
	return b.String()
}

// scoreString renders a GAO score; the chain criterion shows only when it
// fails (it is Minesweeper's alone).
func scoreString(s GAOScore) string {
	chain := ""
	if s.NonChain {
		chain = " non-chain"
	}
	return fmt.Sprintf("cross=%d displaced=%d%s distance=%d", s.Cross, s.Displaced, chain, s.Distance)
}

// Explain describes the compiled plan.
func (p *Prepared) Explain() Explanation {
	e := Explanation{
		Query:     p.q.String(),
		Algorithm: p.plan.Algorithm,
	}
	if sizes, err := relationSizes(p.s.db, p.q); err == nil {
		if res, err := agm.Compute(p.q, sizes); err == nil {
			e.AGMBound = res.Bound()
		}
	}
	plan := p.plan
	e.GAO = append([]string(nil), plan.GAO...)
	if e.UserGAO = p.opts.GAO != nil; e.UserGAO {
		e.Score = hypergraph.ScoreGAO(p.q, plan.Algorithm, plan.GAO)
	} else if pr := plan.Pricing; pr != nil {
		e.Score = hypergraph.ScoreGAO(p.q, plan.Algorithm, plan.GAO)
		e.Priced, e.Price, e.Orders = true, pr.Seeks, pr.Priced
		e.Structural, e.StructuralPrice = slices.Clone(pr.Structural), pr.StructuralSeeks
		if e.StructuralPrice < 0 {
			// Pricing gave the structural order up once it cost more than
			// the chosen one; price it to the end now.
			e.StructuralPrice, _ = engine.Price(p.q, p.s.db, pr.Structural)
		}
	} else {
		best, second := hypergraph.RankGAO(p.q, plan.Algorithm)
		e.Score, e.RunnerUp, e.RunnerUpScore = best.Score, second.GAO, second.Score
	}
	e.BetaCyclic = plan.BetaCyclic
	for d, p := range plan.Memo {
		if p >= 0 {
			e.Memo = append(e.Memo, plan.GAO[d]+" by "+plan.GAO[p])
		}
	}
	gen := plan.Pin()
	for i, a := range plan.Atoms {
		cols := make([]string, len(a.VarPos))
		for k, pos := range a.VarPos {
			cols[k] = plan.GAO[pos]
		}
		ap := AtomPlan{
			Atom:       p.q.Atoms[i].String(),
			Index:      fmt.Sprintf("%s(%s)", p.q.Atoms[i].Rel, strings.Join(cols, ", ")),
			Rows:       gen.Overlay(a.Index).Len(),
			InSkeleton: plan.InSkel == nil || plan.InSkel[i],
		}
		e.Atoms = append(e.Atoms, ap)
	}
	if p.q.Extended() {
		e.Output = append([]string(nil), p.q.Out()...)
		for _, ag := range p.q.Aggs {
			e.Output = append(e.Output, ag.String())
		}
	}
	if push := plan.Push; push != nil {
		for d, bd := range push.Bounds {
			if bd.Trivial() {
				continue
			}
			switch {
			case bd.Hi >= relation.PosInf:
				e.Bounds = append(e.Bounds, fmt.Sprintf("%s >= %d", plan.GAO[d], bd.Lo))
			case bd.Lo <= 0:
				e.Bounds = append(e.Bounds, fmt.Sprintf("%s < %d", plan.GAO[d], bd.Hi))
			default:
				e.Bounds = append(e.Bounds, fmt.Sprintf("%s in [%d, %d)", plan.GAO[d], bd.Lo, bd.Hi))
			}
		}
		for _, r := range push.Residuals {
			rhs := fmt.Sprintf("%d", r.RVal)
			if r.RPos >= 0 {
				rhs = plan.GAO[r.RPos]
			}
			e.Residuals = append(e.Residuals, fmt.Sprintf("%s %s %s", plan.GAO[r.LPos], r.Op, rhs))
		}
		cols := p.q.Emitted()
		switch {
		case push.Buffered():
			e.Keys, e.Buffer = cols[:push.Keys:push.Keys], cols[push.Keys:]
		case p.q.Projected():
			e.Project = cols
		}
	}
	return e
}

// relationSizes collects each atom's relation cardinality.
func relationSizes(db *core.DB, q *Query) ([]int, error) {
	sizes := make([]int, len(q.Atoms))
	for i, a := range q.Atoms {
		n, err := db.Len(a.Rel)
		if err != nil {
			return nil, err
		}
		sizes[i] = n
	}
	return sizes, nil
}
