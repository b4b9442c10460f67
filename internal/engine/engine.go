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

// Options configure compilation (Compile) and execution (New).
type Options struct {
	Algorithm Algorithm
	// Workers sets the worker-pool size; 0 means GOMAXPROCS, 1 disables
	// parallelism.
	Workers int
	// Granularity is the paper's factor f: jobs = workers × f. 0 picks the
	// paper's defaults (1 for β-acyclic queries, 8 for cyclic ones).
	Granularity int
	// MS carries Minesweeper idea toggles (ablation benchmarks).
	MS minesweeper.Options
	// GAO overrides the attribute order.
	GAO []string
	// Plan is the compiled plan New's engine executes; see Compile.
	Plan *core.Plan
	// Stats, when non-nil, receives compilation and execution counters on
	// the unified core stats surface.
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

// New returns the engine executing opts.Plan, which Compile built under
// the same algorithm. Its Count and Enumerate run the plan: their query and
// database arguments are the plan's own.
func New(opts Options) (core.Engine, error) {
	if opts.Algorithm != LFTJ && opts.Algorithm != MS {
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownAlgorithm, opts.Algorithm)
	}
	if opts.Plan == nil {
		return nil, fmt.Errorf("engine: no compiled plan")
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

// run executes plan over the first-variable values in r; a nil emit counts.
func (p *parallel) run(ctx context.Context, plan *core.Plan, r core.Range, emit func([]int64) bool) (int64, error) {
	if p.opts.Algorithm == LFTJ {
		return lftj.Run(ctx, plan, r, p.opts.Stats, emit)
	}
	return minesweeper.Run(ctx, plan, p.opts.MS, r, p.opts.Stats, emit)
}

func (p *parallel) workers() int {
	if p.opts.Workers > 0 {
		return p.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// granularity applies the paper's default f (§4.10): 1 for β-acyclic
// queries, 8 for cyclic ones, "determined after minor micro experiments".
func (p *parallel) granularity() int {
	switch {
	case p.opts.Granularity > 0:
		return p.opts.Granularity
	case p.opts.Plan.BetaCyclic:
		return 8
	}
	return 1
}

// pin returns the plan pinned to the generation one execution reads, and
// the part of Options.Part cut from that generation (the full range when no
// part is set) with the key set it was cut from. A part is cut, and its jobs
// are split and run, from that one database state. A transaction's plan is
// already pinned to its lease, so every store under one routed transaction
// cuts the same contents.
func (p *parallel) pin() (*core.Plan, core.Range, keys) {
	gen := p.opts.Plan.Pin()
	plan := p.opts.Plan.PinnedTo(gen)
	k := leadKeys(plan, gen)
	r := core.FullRange
	if pt := p.opts.Part; pt != nil {
		r = k.cut(r, pt.Part, pt.Of)
	}
	return plan, r, k
}

// Enumerate implements core.Engine.
func (p *parallel) Enumerate(ctx context.Context, _ *query.Query, _ *core.DB, emit func([]int64) bool) error {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	if emit == nil {
		return fmt.Errorf("engine: nil emit")
	}
	plan, r := p.opts.Plan, core.FullRange
	if p.opts.Part != nil {
		plan, r, _ = p.pin()
	}
	if r.Empty() {
		return nil
	}
	_, err := p.run(ctx, plan, r, emit)
	return err
}

// Count implements core.Engine.
func (p *parallel) Count(ctx context.Context, _ *query.Query, _ *core.DB) (int64, error) {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	workers := p.workers()
	if workers <= 1 && p.opts.Part == nil {
		return p.run(ctx, p.opts.Plan, core.FullRange, nil)
	}
	plan, r, k := p.pin()
	if r.Empty() {
		return 0, nil
	}
	// A projected query whose first attribute is not in its output is left
	// whole: the same row could surface in several jobs.
	var jobs []core.Range
	if workers > 1 && plan.Query.PartitionedBy(plan.GAO[0]) {
		jobs = k.split(r, workers*p.granularity())
	}
	if len(jobs) <= 1 {
		return p.run(ctx, plan, r, nil)
	}
	// Never more workers than jobs: Workers arrives unchecked from clients,
	// and each worker costs a goroutine and an error-channel slot.
	workers = min(workers, len(jobs))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var total atomic.Int64
	var wg sync.WaitGroup
	jobCh := make(chan core.Range, len(jobs))
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
				// Each job is a fresh run: per-job CDS and memo state,
				// released before the next job is claimed (§4.10).
				n, err := p.run(ctx, plan, job, nil)
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
	k := keys{lo: core.FullRange.Lo, hi: core.FullRange.Hi}
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
func (k keys) count(r core.Range) (uint64, relation.OverlayCursor) {
	var c relation.OverlayCursor
	if k.ov == nil {
		return 0, c
	}
	lo, hi := max(r.Lo, k.lo), min(r.Hi, k.hi)
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
// b[0] = r.Lo, b[n] = r.Hi, and b[j] for 0 < j < n is the key at index
// ⌊j·K/n⌋ (r.Hi when that index is K). Part j is [b[j], b[j+1]), so parts
// are disjoint, cover r, and are empty exactly when K < n leaves them no
// key. The index arithmetic is 128-bit and nothing is sized by n, so any
// n ≥ 1 a client sends is safe.
func (k keys) bounds(dst []int64, r core.Range, n, from, to uint64) []int64 {
	count, c := k.count(r)
	at := uint64(0) // index of c's key
	for j := from; ; j++ {
		hi, lo := bits.Mul64(j, count)
		idx, _ := bits.Div64(hi, lo, n) // j ≤ n, so the quotient fits
		switch {
		case j == 0:
			dst = append(dst, r.Lo)
		case j == n || idx == count:
			dst = append(dst, r.Hi)
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
func (k keys) cut(r core.Range, i, n uint64) core.Range {
	var buf [2]int64
	b := k.bounds(buf[:0], r, n, i, i+1)
	return core.Range{Lo: b[0], Hi: b[1]}
}

// split cuts r into up to n jobs by the same rule as cut — the paper's "p
// equal-sized parts" of the output space — with never more jobs than keys,
// so none is empty.
func (k keys) split(r core.Range, n int) []core.Range {
	count, _ := k.count(r)
	m := min(uint64(max(n, 1)), count)
	if m <= 1 {
		return nil
	}
	b := k.bounds(make([]int64, 0, m+1), r, m, 0, m)
	jobs := make([]core.Range, m)
	for j := range jobs {
		jobs[j] = core.Range{Lo: b[j], Hi: b[j+1]}
	}
	return jobs
}
