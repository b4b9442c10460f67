// Package engine runs the paper's two join engines — Leapfrog Triejoin and
// Minesweeper — behind one interface and implements the §4.10
// multi-threading strategy: the output space is partitioned into
// p = workers × granularity jobs on the first GAO attribute, submitted to a
// worker pool; idle workers grab the next unclaimed job (work stealing),
// because on skewed graphs "the parts are not born equal". The same cut
// divides a distributed fan-out: Options.Part runs one part of it. The paper's
// outside baselines (psql, MonetDB, GraphLab, Yannakakis, generic join and
// the §4.12 hybrid) are not served; internal/bench runs them.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/lftj"
	"repro/internal/minesweeper"
	"repro/internal/query"
	"repro/internal/relation"
)

// Algorithm names a join engine. The names match the paper's system labels
// (§5.1): lb/lftj and lb/ms.
type Algorithm string

// Available algorithms.
const (
	LFTJ Algorithm = "lftj"
	MS   Algorithm = "ms"
)

// Algorithms lists every registered algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{LFTJ, MS}
}

// ErrUnknownAlgorithm reports an algorithm name outside the registered set;
// API callers branch with errors.Is instead of matching message text.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// ParseAlgorithm resolves a user-supplied algorithm name; empty selects LFTJ
// (the default engine throughout the API).
func ParseAlgorithm(s string) (Algorithm, error) {
	a := Algorithm(s)
	if a == "" {
		return LFTJ, nil
	}
	for _, known := range Algorithms() {
		if a == known {
			return a, nil
		}
	}
	names := make([]string, len(Algorithms()))
	for i, k := range Algorithms() {
		names[i] = string(k)
	}
	return "", fmt.Errorf("engine: %w %q (want one of %s)", ErrUnknownAlgorithm, s, strings.Join(names, ", "))
}

// Options configure execution.
type Options struct {
	Algorithm Algorithm
	// Workers sets the worker-pool size; 0 means GOMAXPROCS, 1 disables
	// parallelism.
	Workers int
	// Granularity is the paper's factor f: jobs = workers × f. 0 picks the
	// paper's defaults (1 for β-acyclic queries, 8 for cyclic ones).
	Granularity int
	// MS carries Minesweeper idea toggles (ablation benchmarks). Its GAO is
	// ignored: GAO below is the one user order.
	MS minesweeper.Options
	// GAO overrides the attribute order.
	GAO []string
	// Plan, when set, is a compiled plan the engine executes directly; see
	// Prepare.
	Plan *core.Plan
	// Stats, when non-nil, receives execution counters on the unified core
	// stats surface.
	Stats *core.StatsCollector
	// Part, when set, restricts execution to one part of the output space:
	// part Part.Part of Part.Of contiguous ranges of the first GAO variable,
	// cut from the data by the §4.10 split rule (keys.bounds). Each execution
	// cuts from the generation it pins, so stores holding the same logical
	// contents cut the same parts, and Workers split the part again by the
	// same rule. The caller checks that the variable partitions the rows
	// (query.PartitionedBy).
	Part *Part
}

// Part names part Part of Of equal-key ranges of the first GAO variable;
// see Options.Part. Part < Of.
type Part struct {
	Part, Of uint64
}

// New returns the configured engine.
func New(opts Options) (core.Engine, error) {
	if opts.Algorithm != LFTJ && opts.Algorithm != MS {
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownAlgorithm, opts.Algorithm)
	}
	return &parallel{opts: opts}, nil
}

// parallel partitions Count across first-attribute ranges; Enumerate runs
// single-threaded (deterministic emission order). Both run only their part
// when Options.Part is set.
type parallel struct {
	opts Options
}

// Name implements core.Engine.
func (p *parallel) Name() string { return string(p.opts.Algorithm) }

// interval is a half-open range [lo, hi) of first-variable values.
type interval struct{ lo, hi int64 }

// whole is the interval every part and job is cut from: the storage domain,
// with -1 below every value.
var whole = interval{-1, relation.PosInf}

// engine returns the single-threaded engine for one execution of plan (nil:
// the engine compiles the query itself), restricted to the first-variable
// values in r when r is non-nil.
func (p *parallel) engine(plan *core.Plan, r *interval) core.Engine {
	if p.opts.Algorithm == LFTJ {
		opts := lftj.Options{GAO: p.opts.GAO, Plan: plan, Stats: p.opts.Stats}
		if r != nil {
			opts.FirstVarRange = &lftj.Range{Lo: r.lo, Hi: r.hi}
		}
		return lftj.Engine{Opts: opts}
	}
	ms := p.opts.MS
	ms.GAO = p.opts.GAO
	if r != nil {
		ms.FirstVarRange = &minesweeper.Range{Lo: r.lo, Hi: r.hi}
	}
	ms.Plan = plan
	ms.Collector = p.opts.Stats
	return minesweeper.Engine{Opts: ms}
}

func (p *parallel) workers() int {
	if p.opts.Workers > 0 {
		return p.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// granularity applies the paper's default f (§4.10): 1 for β-acyclic
// queries, 8 for cyclic ones, "determined after minor micro experiments".
// A compiled plan carries the classification; without one it is re-derived.
func (p *parallel) granularity(q *query.Query) int {
	if p.opts.Granularity > 0 {
		return p.opts.Granularity
	}
	if p.opts.Plan != nil {
		if p.opts.Plan.BetaCyclic {
			return 8
		}
		return 1
	}
	if _, ok := hypergraph.FindChainGAO(q.Vars(), q.Atoms); ok {
		return 1
	}
	return 8
}

// pin returns the plan one execution runs — the compiled one, or one
// compiled here — pinned to the generation it reads, and the key set that
// generation splits on the first variable. A part is cut, and its jobs are
// split and run, from that one database state. A transaction's plan is
// already pinned to its lease, so every store under one routed transaction
// cuts the same contents.
func (p *parallel) pin(q *query.Query, db *core.DB) (*core.Plan, keys, error) {
	plan := p.opts.Plan
	if plan == nil {
		var err error
		if plan, err = compile(p.opts, q, db, nil); err != nil {
			return nil, keys{}, err
		}
	}
	gen := plan.Pin()
	return plan.PinnedTo(gen), leadKeys(plan, gen), nil
}

// part returns the interval of Options.Part in k, or nil when no part is set.
func (p *parallel) part(k keys) *interval {
	pt := p.opts.Part
	if pt == nil {
		return nil
	}
	r := k.cut(whole, pt.Part, pt.Of)
	return &r
}

// Enumerate implements core.Engine.
func (p *parallel) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	if p.opts.Part == nil {
		return p.engine(p.opts.Plan, nil).Enumerate(ctx, q, db, emit)
	}
	plan, k, err := p.pin(q, db)
	if err != nil {
		return err
	}
	r := p.part(k)
	if r.lo >= r.hi {
		return nil
	}
	return p.engine(plan, r).Enumerate(ctx, q, db, emit)
}

// Count implements core.Engine.
func (p *parallel) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	workers := p.workers()
	if workers <= 1 && p.opts.Part == nil {
		return p.engine(p.opts.Plan, nil).Count(ctx, q, db)
	}
	plan, k, err := p.pin(q, db)
	if err != nil {
		return 0, err
	}
	r := p.part(k)
	if r != nil && r.lo >= r.hi {
		return 0, nil
	}
	// A projected query whose first attribute is not in its output is left
	// whole: the same row could surface in several jobs.
	var jobs []interval
	if workers > 1 && q.PartitionedBy(plan.GAO[0]) {
		span := whole
		if r != nil {
			span = *r
		}
		jobs = k.split(span, workers*p.granularity(q))
	}
	if len(jobs) <= 1 {
		return p.engine(plan, r).Count(ctx, q, db)
	}
	// Never more workers than jobs: Workers arrives unchecked from clients,
	// and each worker costs a goroutine and an error-channel slot.
	workers = min(workers, len(jobs))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The legacy per-run Minesweeper Stats pointer is not safe under
	// concurrent adds; concurrent jobs report through the collector instead.
	jp := *p
	jp.opts.MS.Stats = nil
	var total atomic.Int64
	var wg sync.WaitGroup
	jobCh := make(chan interval, len(jobs))
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if err := ctx.Err(); err != nil {
					errCh <- err
					return
				}
				// Each job gets a fresh engine: per-job CDS and memo state,
				// released before the next job is claimed (§4.10).
				n, err := jp.engine(plan, &job).Count(ctx, q, db)
				if err != nil {
					errCh <- err
					cancel()
					return
				}
				total.Add(n)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return total.Load(), nil
}

// keys is the key set the §4.10 split cuts: the level-0 keys of the smallest
// index leading on the first GAO variable, in one pinned generation, inside
// the plan's level-0 seek bounds [lo, hi). The keys are read off the merged
// trie cursor, so they are the index's logical contents: two stores holding
// the same tuples cut the same parts however their base tries and overlay
// logs differ.
type keys struct {
	ov     *relation.Overlay // nil when no atom binds the variable
	lo, hi int64
}

// leadKeys returns the key set plan's first variable splits on in gen.
func leadKeys(plan *core.Plan, gen *core.Generation) keys {
	k := keys{lo: whole.lo, hi: whole.hi}
	if push := plan.Push; push != nil && push.Bounds != nil {
		k.lo, k.hi = push.Bounds[0].Lo, push.Bounds[0].Hi
	}
	for _, a := range plan.Atoms {
		if ov := gen.Overlay(a.Index); a.VarPos[0] == 0 && (k.ov == nil || ov.Len() < k.ov.Len()) {
			k.ov = ov
		}
	}
	return k
}

// count returns the number of keys inside r, and a cursor on the first.
func (k keys) count(r interval) (uint64, relation.OverlayCursor) {
	var c relation.OverlayCursor
	if k.ov == nil {
		return 0, c
	}
	lo, hi := max(r.lo, k.lo), min(r.hi, k.hi)
	n := uint64(0)
	c.Reset(k.ov)
	c.Open()
	for c.SeekGE(lo); !c.AtEnd() && c.Key() < hi; c.Next() {
		n++
	}
	c.Reset(k.ov)
	c.Open()
	c.SeekGE(lo)
	return n, c
}

// bounds appends boundaries b[from..to] of the n-way cut of r to dst. The
// cut divides r into n contiguous parts holding equal shares of its K keys:
// b[0] = r.lo, b[n] = r.hi, and b[j] for 0 < j < n is the key at index
// ⌊j·K/n⌋ (r.hi when that index is K). Part j is [b[j], b[j+1]), so parts
// are disjoint, cover r, and are empty exactly when K < n leaves them no
// key. The index arithmetic is 128-bit and nothing is sized by n, so any
// n ≥ 1 a client sends is safe.
func (k keys) bounds(dst []int64, r interval, n, from, to uint64) []int64 {
	count, c := k.count(r)
	at := uint64(0) // index of c's key
	for j := from; ; j++ {
		hi, lo := bits.Mul64(j, count)
		idx, _ := bits.Div64(hi, lo, n) // j ≤ n, so the quotient fits
		switch {
		case j == 0:
			dst = append(dst, r.lo)
		case j == n || idx == count:
			dst = append(dst, r.hi)
		default:
			for ; at < idx; at++ {
				c.Next()
			}
			dst = append(dst, c.Key())
		}
		if j == to {
			return dst
		}
	}
}

// cut returns part i of the n-way cut of r (i < n).
func (k keys) cut(r interval, i, n uint64) interval {
	var buf [2]int64
	b := k.bounds(buf[:0], r, n, i, i+1)
	return interval{b[0], b[1]}
}

// split cuts r into up to n jobs by the same rule as cut — the paper's "p
// equal-sized parts" of the output space — with never more jobs than keys,
// so none is empty.
func (k keys) split(r interval, n int) []interval {
	count, _ := k.count(r)
	m := min(uint64(max(n, 1)), count)
	if m <= 1 {
		return nil
	}
	b := k.bounds(make([]int64, 0, m+1), r, m, 0, m)
	jobs := make([]interval, m)
	for j := range jobs {
		jobs[j] = interval{b[j], b[j+1]}
	}
	return jobs
}
