package router

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/client"
	"repro/internal/query"
	"repro/internal/trace"
)

// ErrDiverged reports replicas that disagree about the data: a part of a
// concatenated stream did not start after the previous part ended, so the
// hosts cut their parts from different contents. It arrives wrapped in a
// *HostError naming the host whose part was out of place.
var ErrDiverged = errors.New("replicas diverged")

// chunkRows is how many rows a fan-out leg copies into one chunk before
// handing it to the concatenation: one allocation and one channel send per
// chunk instead of per row.
const chunkRows = 64

// Prepared is a routed prepared query: one downstream handle per
// participating host, plus the merge shape decided at Prepare time. It
// satisfies repro.PreparedQuery; executions fan out and merge (or run
// shard-local for single-host-routed queries). Safe for concurrent use.
type Prepared struct {
	r   *Router
	q   *repro.Query
	alg string

	// hosts are the downstream handles; hostIdx maps each to its global
	// host index in the router topology. A single-routed query has one
	// entry; a fanned-out query has one per host.
	hosts   []repro.PreparedQuery
	hostIdx []int
	single  bool

	// leadCol is the output column of the leading GAO attribute, whose
	// values the parts partition: rows sort first on it, so part i's rows
	// all come before part i+1's.
	leadCol int
	// globalAgg marks an empty-group-by aggregate query: each host reports
	// one partial row (or none), folded rather than concatenated.
	globalAgg bool
	aggs      []query.Agg

	// routeNote records the routing decision, for Explain.
	routeNote string
}

var _ repro.PreparedQuery = (*Prepared)(nil)

// Query returns the compiled query.
func (p *Prepared) Query() *repro.Query { return p.q }

// Algorithm returns the engine the query was compiled for on the hosts.
func (p *Prepared) Algorithm() string { return p.alg }

// Close releases every downstream handle.
func (p *Prepared) Close() error {
	var first error
	for i, h := range p.hosts {
		if err := h.Close(); err != nil && first == nil {
			first = p.r.hostErr(p.hostIdx[i], err)
		}
	}
	return first
}

// Stats sums the execution counters across the downstream handles.
func (p *Prepared) Stats() repro.ExecStats {
	var s repro.ExecStats
	for _, h := range p.hosts {
		s.Merge(h.Stats())
	}
	return s
}

// Count executes across the cluster and returns the merged cardinality:
// the sum of per-part counts (disjoint covering parts), except for
// empty-group-by aggregates, whose single global group exists iff any host
// contributes to it.
func (p *Prepared) Count(ctx context.Context) (int64, error) {
	return p.count(ctx, nil)
}

// Enumerate streams the merged results: the hosts' parts concatenated in
// host order (byte-identical to a single store's stream), or the folded
// partial row for empty-group-by aggregates. emit returns false to stop
// early, which cancels every host's execution.
func (p *Prepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	return p.enumerate(ctx, nil, emit)
}

// Rows is Enumerate as a streaming iterator; each yielded slice is owned by
// the consumer.
func (p *Prepared) Rows(ctx context.Context) iter.Seq[[]int64] {
	return repro.OwnedRows(ctx, p.Enumerate)
}

// RowsErr is Rows with an explicit error: (tuple, nil) per result and a
// final (nil, err) pair if any host fails mid-stream.
func (p *Prepared) RowsErr(ctx context.Context) iter.Seq2[[]int64, error] {
	return repro.OwnedRowsErr(ctx, p.Enumerate)
}

// legSpan opens the "router.leg" span for host i's part of a fan-out — one
// sibling per leg under the request's root, so a trace shows the straggler as
// the longest bar. The returned context carries the leg span downstream: the
// client transport injects it into the per-host request, making the shard
// server's root span a child of this leg.
func (p *Prepared) legSpan(ctx context.Context, i int) (context.Context, *trace.Span) {
	ctx, sp := trace.Start(ctx, "router.leg")
	sp.SetStr("host", p.r.names[p.hostIdx[i]])
	return ctx, sp
}

// hostCtx derives the context for one per-host unary request, applying the
// router's per-host request timeout when configured.
func (p *Prepared) hostCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.r.reqTimeout > 0 {
		return context.WithTimeout(ctx, p.r.reqTimeout)
	}
	return context.WithCancel(ctx)
}

// retryUnary runs one idempotent per-host unary read with the router's
// bounded retry: admission rejections (client.ErrOverloaded) back off and
// retry; everything else returns immediately.
func (p *Prepared) retryUnary(ctx context.Context, f func(ctx context.Context) error) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		hctx, cancel := p.hostCtx(ctx)
		err := f(hctx)
		cancel()
		if err == nil || attempt >= p.r.maxRetries || !errors.Is(err, client.ErrOverloaded) {
			return err
		}
		p.r.met.retries.Inc()
		select {
		case <-time.After(backoff):
			backoff *= 2
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// countOn runs one host's count, inside t when it is non-nil.
func (p *Prepared) countOn(ctx context.Context, i int, t *Txn) (int64, error) {
	var n int64
	err := p.retryUnary(ctx, func(ctx context.Context) error {
		var err error
		n, err = repro.Exec(ctx, t.host(p.hostIdx[i]), p.hosts[i], nil)
		return err
	})
	return n, err
}

// snapshot returns the transaction the execution should run under: the
// caller's (from a user-level Txn), or a fresh internal distributed
// read-transaction so a fan-out observes one write generation across hosts.
// release is a no-op for a caller-provided transaction.
func (p *Prepared) snapshot(t *Txn) (_ *Txn, release func(), err error) {
	if t == nil {
		qt, err := p.r.ReadTxn()
		if err != nil {
			return nil, nil, err
		}
		t = qt.(*Txn)
		return t, func() { t.Close() }, nil
	}
	return t, func() {}, nil
}

// fanOut runs leg for every host concurrently, each under its own
// router.leg span and timed into the per-host and fan-out histograms, and
// returns the first failing host's error as a *HostError.
func (p *Prepared) fanOut(ctx context.Context, leg func(ctx context.Context, i int, sp *trace.Span) error) error {
	n := len(p.hosts)
	errs := make([]error, n)
	durations := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range p.hosts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lctx, sp := p.legSpan(ctx, i)
			start := time.Now()
			errs[i] = leg(lctx, i, sp)
			durations[i] = time.Since(start)
			sp.End()
			p.r.met.observeHost(p.r.names[p.hostIdx[i]], durations[i])
		}(i)
	}
	wg.Wait()
	p.r.met.observeFanout(durations)
	for i, err := range errs {
		if err != nil {
			return p.r.hostErr(p.hostIdx[i], err)
		}
	}
	return nil
}

func (p *Prepared) count(ctx context.Context, t *Txn) (int64, error) {
	if p.single {
		return p.countOn(ctx, 0, t)
	}
	t, release, err := p.snapshot(t)
	if err != nil {
		return 0, err
	}
	defer release()
	counts := make([]int64, len(p.hosts))
	err = p.fanOut(ctx, func(ctx context.Context, i int, sp *trace.Span) error {
		var err error
		counts[i], err = p.countOn(ctx, i, t)
		sp.SetInt("count", counts[i])
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if p.globalAgg {
		// The single global group exists iff any host saw a row; per-host
		// counts are each 0 or 1 and must not sum.
		return min(total, 1), nil
	}
	return total, nil
}

func (p *Prepared) enumerate(ctx context.Context, t *Txn, emit func([]int64) bool) error {
	if p.single {
		_, err := repro.Exec(ctx, t.host(p.hostIdx[0]), p.hosts[0], emit)
		return err
	}
	t, release, err := p.snapshot(t)
	if err != nil {
		return err
	}
	defer release()
	if p.globalAgg {
		return p.foldPartials(ctx, t, emit)
	}
	return p.concat(ctx, t, emit)
}

// foldPartials collects each host's partial aggregate row (zero or one per
// host — the host's fold over its part of the distinct bindings) and folds
// them into the global row: count and sum partials add, min/max partials
// fold. Hosts whose part is empty contribute nothing; if every part is
// empty the merged query emits nothing, matching a single store.
func (p *Prepared) foldPartials(ctx context.Context, t *Txn, emit func([]int64) bool) error {
	partials := make([][]int64, len(p.hosts))
	err := p.fanOut(ctx, func(ctx context.Context, i int, _ *trace.Span) error {
		return t.txns[p.hostIdx[i]].Enumerate(ctx, p.hosts[i], func(row []int64) bool {
			partials[i] = append([]int64(nil), row...)
			return true
		})
	})
	if err != nil {
		return err
	}
	var acc []int64
	for _, part := range partials {
		if part == nil {
			continue
		}
		if acc == nil {
			acc = part
			continue
		}
		for j, ag := range p.aggs {
			acc[j] = ag.Func.Merge(acc[j], part[j])
		}
	}
	if acc != nil {
		emit(acc)
	}
	return nil
}

// concat runs every host's part concurrently and emits part 0's rows, then
// part 1's, and so on: part i is the i-th range of the leading attribute, so
// that is the single-store order. Host 0's part streams straight through to
// emit; every later leg copies its rows into chunks and runs up to two
// chunks ahead (one queued, one filling) before blocking on the
// concatenation, which hands each drained chunk back to its leg for reuse.
// The first host to fail cancels the others and fails the stream with a
// typed *HostError — never a silently truncated stream — and a part that
// does not start after the previous one ended fails it with ErrDiverged
// rather than repeating rows. The consumer stopping (emit false) cancels
// every host's execution.
func (p *Prepared) concat(ctx context.Context, t *Txn, emit func([]int64) bool) error {
	hctx, cancel := context.WithCancel(ctx)
	n := len(p.hosts)
	start := time.Now()
	durations := make([]time.Duration, n)
	var failOnce sync.Once
	var failed error // the first failure; it cancels every leg
	fail := func(i int, err error) error {
		failOnce.Do(func() {
			failed = p.r.hostErr(p.hostIdx[i], err)
			cancel()
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		return failed
	}
	// run executes host i's part, handing each row to f.
	run := func(i int, f func([]int64) bool) error {
		lctx, sp := p.legSpan(hctx, i)
		var shipped int64
		err := t.txns[p.hostIdx[i]].Enumerate(lctx, p.hosts[i], func(row []int64) bool {
			shipped++
			return f(row)
		})
		durations[i] = time.Since(start)
		sp.SetInt("rows", shipped)
		sp.End()
		p.r.met.observeHost(p.r.names[p.hostIdx[i]], durations[i])
		return err
	}
	// A chunk holds whole rows back to back: all rows of a query have the
	// same width.
	type chunk struct {
		vals  []int64
		width int
	}
	chunks := make([]chan chunk, n)
	spares := make([]chan []int64, n) // drained chunks, back to their leg
	errs := make([]error, n)
	var wg sync.WaitGroup
	defer func() {
		// Stop the legs before returning so no host keeps executing against
		// a transaction the caller is about to close.
		cancel()
		for _, ch := range chunks[1:] {
			for range ch { // unblock legs waiting to hand over a chunk
			}
		}
		wg.Wait()
		p.r.met.observeFanout(durations)
	}()
	for i := 1; i < n; i++ {
		chunks[i] = make(chan chunk, 1)
		spares[i] = make(chan []int64, 2)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(chunks[i])
			var c chunk
			cut := false // the leg was stopped, not finished
			send := func() bool {
				select {
				case chunks[i] <- c:
					c.vals = nil
					return true
				case <-hctx.Done():
					cut = true
					return false
				}
			}
			err := run(i, func(row []int64) bool {
				if c.vals == nil {
					c.width = len(row)
					select {
					case c.vals = <-spares[i]:
					default:
						c.vals = make([]int64, 0, chunkRows*c.width)
					}
				}
				c.vals = append(c.vals, row...)
				return len(c.vals) < cap(c.vals) || send()
			})
			if err == nil && len(c.vals) > 0 {
				send()
			}
			if err == nil && cut {
				err = hctx.Err()
			}
			if err != nil {
				fail(i, err)
			}
			errs[i] = err
		}(i)
	}

	// The merge span times the concatenation — the coordinator-side cost
	// between the fan-out legs and the consumer.
	_, msp := trace.Start(ctx, "router.merge")
	var merged int64
	defer func() {
		msp.SetInt("rows", merged)
		msp.End()
	}()
	lead := int64(math.MinInt64) // the leading value of the last row emitted
	stopped, diverged := false, false
	for i := 0; i < n; i++ {
		first := true
		take := func(row []int64) bool {
			if first {
				first = false
				if diverged = row[p.leadCol] <= lead; diverged {
					return false
				}
			}
			lead = row[p.leadCol]
			merged++
			stopped = !emit(row)
			return !stopped
		}
		var err error
		if i == 0 {
			err = run(0, take)
		} else {
		drain:
			for c := range chunks[i] {
				for row := range slices.Chunk(c.vals, c.width) {
					if !take(row) {
						break drain
					}
				}
				select {
				case spares[i] <- c.vals[:0]:
				default:
				}
			}
			if !stopped && !diverged {
				err = errs[i] // the leg closed its channel after setting it
			}
		}
		switch {
		case stopped:
			return nil
		case diverged:
			return p.r.hostErr(p.hostIdx[i], fmt.Errorf("%w: part %d of %d starts at or before the previous part's last row", ErrDiverged, i, n))
		case err != nil:
			return fail(i, err)
		}
	}
	return nil
}
