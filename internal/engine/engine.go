// Package engine compiles plans for the paper's two join engines — Leapfrog
// Triejoin and Minesweeper — and runs them through one call, Run, which
// implements the §4.10 multi-threading strategy: the output space is
// partitioned into p = workers × granularity jobs on the first GAO
// attribute, submitted to a worker pool; idle workers grab the next
// unclaimed job (work stealing), because on skewed graphs "the parts are not
// born equal". The same cut divides a distributed fan-out: Options.Part runs
// one part of it. The paper's outside baselines (psql, MonetDB, GraphLab,
// Yannakakis, generic join and the §4.12 hybrid) are not served;
// internal/bench runs them.
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

// Options configure compilation (Compile) and execution (Run).
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
	// Stats, when non-nil, receives compilation and execution counters on
	// the unified core stats surface.
	Stats *core.StatsCollector
	// Part, when set, restricts execution to one part of the output space:
	// part Part.Part of Part.Of contiguous ranges of the first GAO variable,
	// cut by the §4.10 split rule (keys.bounds) from the generation the
	// execution reads, so stores holding the same logical contents cut the
	// same parts, and Workers split the part again by the same rule. The
	// caller checks that the variable partitions the rows
	// (query.PartitionedBy).
	Part *Part
}

// Part names part Part of Of equal-key ranges of the first GAO variable;
// see Options.Part. Part < Of.
type Part struct {
	Part, Of uint64
}

// Run executes plan, which Compile built, on generation gen, and returns the
// number of rows. A nil gen reads the database's current generation, pinned
// once, here; a transaction passes its lease's. A nil emit counts, split into
// §4.10 jobs when opts.Workers allows more than one. A non-nil emit
// enumerates single-threaded, so rows arrive in order; it returns false to
// stop. opts.Part restricts the run to its part, cut from gen. Run adds one
// execution and the run's counters to opts.Stats.
func Run(ctx context.Context, plan *core.Plan, gen *core.Generation, opts *Options, emit func([]int64) bool) (int64, error) {
	opts.Stats.Add(core.Stats{Executions: 1})
	if gen == nil {
		gen = plan.Pin()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Part == nil && (emit != nil || workers == 1) {
		return run(ctx, plan, gen, opts, core.FullRange, emit)
	}
	k := leadKeys(plan, gen)
	r := core.FullRange
	if pt := opts.Part; pt != nil {
		if r = k.cut(r, pt.Part, pt.Of); r.Empty() {
			return 0, nil
		}
	}
	// A projected query whose first attribute is not in its output is left
	// whole: the same row could surface in several jobs.
	var jobs []core.Range
	if emit == nil && workers > 1 && plan.Query.PartitionedBy(plan.GAO[0]) {
		jobs = k.split(r, workers*granularity(plan, opts))
	}
	if len(jobs) <= 1 {
		return run(ctx, plan, gen, opts, r, emit)
	}
	// Never more workers than jobs: Workers arrives unchecked from clients,
	// and each worker costs a goroutine and an error-channel slot.
	return pool(ctx, plan, gen, opts, jobs, min(workers, len(jobs)))
}

// run executes plan on gen over the first-variable values in r, on the
// engine the plan was compiled for.
func run(ctx context.Context, plan *core.Plan, gen *core.Generation, opts *Options, r core.Range, emit func([]int64) bool) (int64, error) {
	if plan.Algorithm == string(LFTJ) {
		return lftj.Run(ctx, plan, gen, r, opts.Stats, emit)
	}
	return minesweeper.Run(ctx, plan, gen, opts.MS, r, opts.Stats, emit)
}

// granularity applies the paper's default f (§4.10): 1 for β-acyclic
// queries, 8 for cyclic ones, "determined after minor micro experiments".
func granularity(plan *core.Plan, opts *Options) int {
	switch {
	case opts.Granularity > 0:
		return opts.Granularity
	case plan.BetaCyclic:
		return 8
	}
	return 1
}

// pool counts jobs on a pool of workers, each claiming the next unclaimed
// job as it goes idle (work stealing), and returns the sum. It is its own
// function so that the goroutines' captures stay off Run's sequential path.
func pool(ctx context.Context, plan *core.Plan, gen *core.Generation, opts *Options, jobs []core.Range, workers int) (int64, error) {
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
				n, err := run(ctx, plan, gen, opts, job, nil)
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
