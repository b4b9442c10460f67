// Package engine runs the paper's two join engines — Leapfrog Triejoin and
// Minesweeper — behind one interface and implements the §4.10
// multi-threading strategy: the output space is partitioned into
// p = workers × granularity jobs on the first GAO attribute, submitted to a
// worker pool; idle workers grab the next unclaimed job (work stealing),
// because on skewed graphs "the parts are not born equal". The paper's
// outside baselines (psql, MonetDB, GraphLab, Yannakakis, generic join and
// the §4.12 hybrid) are not served; internal/bench runs them.
package engine

import (
	"context"
	"errors"
	"fmt"
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
	// FirstVarRange, when set, restricts execution to first-GAO-variable
	// values in [Lo, Hi) — the same restriction the §4.10 parallel jobs use
	// internally, exposed so a coordinator can partition one query's output
	// space across processes. Count runs single-threaded under a restriction
	// (the caller owns the parallelism).
	FirstVarRange *Range
}

// Range restricts the first GAO variable to [Lo, Hi); see
// Options.FirstVarRange.
type Range struct {
	Lo, Hi int64
}

// New returns the configured engine.
func New(opts Options) (core.Engine, error) {
	if opts.Algorithm != LFTJ && opts.Algorithm != MS {
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownAlgorithm, opts.Algorithm)
	}
	return &parallel{opts: opts}, nil
}

// parallel partitions Count across first-attribute ranges; Enumerate runs
// single-threaded (deterministic emission order).
type parallel struct {
	opts Options
}

// Name implements core.Engine.
func (p *parallel) Name() string { return string(p.opts.Algorithm) }

func (p *parallel) single() core.Engine {
	if p.opts.Algorithm == LFTJ {
		opts := lftj.Options{GAO: p.opts.GAO, Plan: p.opts.Plan, Stats: p.opts.Stats}
		if r := p.opts.FirstVarRange; r != nil {
			opts.FirstVarRange = &lftj.Range{Lo: r.Lo, Hi: r.Hi}
		}
		return lftj.Engine{Opts: opts}
	}
	ms := p.opts.MS
	ms.GAO = p.opts.GAO
	if r := p.opts.FirstVarRange; r != nil {
		ms.FirstVarRange = &minesweeper.Range{Lo: r.Lo, Hi: r.Hi}
	}
	ms.Plan = p.opts.Plan
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

// Enumerate implements core.Engine.
func (p *parallel) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	return p.single().Enumerate(ctx, q, db, emit)
}

// Count implements core.Engine.
func (p *parallel) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	workers := p.workers()
	// Under an external first-variable restriction the output space is
	// already one partition of a larger fan-out; splitting it again would
	// clobber the restriction (rangeCount overwrites FirstVarRange per job).
	if workers <= 1 || p.opts.FirstVarRange != nil {
		return p.single().Count(ctx, q, db)
	}
	plan := p.opts.Plan
	if plan == nil {
		var err error
		if plan, err = compile(p.opts, q, db, nil); err != nil {
			return 0, err
		}
	}
	gen := plan.Pin()
	jobs := splitJobs(q, plan, gen, workers*p.granularity(q))
	if len(jobs) <= 1 {
		return p.single().Count(ctx, q, db)
	}
	// Every job reads the generation the split was cut from, so the parts
	// add up to the count of one database state.
	plan = plan.PinnedTo(gen)
	// Never more workers than jobs: Workers arrives unchecked from clients,
	// and each worker costs a goroutine and an error-channel slot.
	workers = min(workers, len(jobs))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var total atomic.Int64
	var wg sync.WaitGroup
	jobCh := make(chan [2]int64, len(jobs))
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
				n, err := p.rangeCount(ctx, q, db, plan, job[0], job[1])
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

func (p *parallel) rangeCount(ctx context.Context, q *query.Query, db *core.DB, plan *core.Plan, lo, hi int64) (int64, error) {
	if p.opts.Algorithm == LFTJ {
		e := lftj.Engine{Opts: lftj.Options{FirstVarRange: &lftj.Range{Lo: lo, Hi: hi}, Plan: plan, Stats: p.opts.Stats}}
		return e.Count(ctx, q, db)
	}
	ms := p.opts.MS
	ms.FirstVarRange = &minesweeper.Range{Lo: lo, Hi: hi}
	ms.Plan = plan
	ms.Collector = p.opts.Stats
	// The per-job legacy Stats pointer is not safe under concurrent adds;
	// concurrent jobs report through the collector instead.
	ms.Stats = nil
	return minesweeper.Engine{Opts: ms}.Count(ctx, q, db)
}

// splitJobs partitions the first GAO variable's candidate values into up to
// n contiguous ranges of roughly equal candidate counts (the paper's
// "p equal-sized parts" of the output space). The candidates are the
// level-0 keys of the smallest atom index leading on that variable, in
// generation gen: already distinct and sorted, read off the trie without
// materialising anything. A projected query whose first attribute is not in
// its output is left whole: the same row could surface in several parts.
func splitJobs(q *query.Query, plan *core.Plan, gen *core.Generation, n int) [][2]int64 {
	first := plan.GAO[0]
	if _, pinned := q.Pinned(first); !pinned && !q.PartitionedBy(first) {
		return nil
	}
	var best *relation.Overlay
	for _, a := range plan.Atoms {
		if ov := gen.Overlay(a.Index); a.VarPos[0] == 0 && (best == nil || ov.Len() < best.Len()) {
			best = ov
		}
	}
	if best == nil {
		return nil // no atom binds the first variable: the engine reports it
	}
	var values []int64
	var c relation.OverlayCursor
	c.Reset(best)
	for c.Open(); !c.AtEnd(); c.Next() {
		values = append(values, c.Key())
	}
	if n < 1 {
		n = 1
	}
	if len(values) < n {
		n = len(values)
	}
	if n <= 1 {
		return [][2]int64{{-1, relation.PosInf}}
	}
	jobs := make([][2]int64, 0, n)
	lo := int64(-1)
	for i := 1; i < n; i++ {
		cut := values[i*len(values)/n]
		if cut <= lo {
			continue
		}
		jobs = append(jobs, [2]int64{lo, cut})
		lo = cut
	}
	jobs = append(jobs, [2]int64{lo, relation.PosInf})
	return jobs
}
