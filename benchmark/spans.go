package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/trace"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation share Op; Parent is the span whose call caused this one (0 for
// the operation's root). Spans of calls that carry no context (Apply,
// Prepare) cannot be attributed to an operation and have Op 0.
type span struct {
	Op       uint64 `json:"op"`
	ID       uint64 `json:"span"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Query    string `json:"query,omitempty"`
	Host     int    `json:"host"` // cluster host the call went to or ran on; -1 when not host-bound
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	FirstRow int64  `json:"first_row_ns,omitempty"` // when a row stream yielded its first row
	Workload string `json:"workload"`
	Rows     int64  `json:"rows"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the recorder's memory; operations past it are measured
// but not recorded.
const maxSpans = 1 << 20

// recorder collects the benchmark's own spans in memory. A nil recorder
// means tracing is off: no wrapper is installed and no operation carries a
// trace context.
type recorder struct {
	workload string
	epoch    time.Time
	nextID   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// crossing maps {operation, host} to the client-side span whose call is
	// on the wire to that host right now: the parent of whatever the
	// server-side wrapper records for that operation on that host. The
	// program's trace context carries the operation id across the wire but
	// exposes no parent, so the link is kept here.
	crossing map[crossKey]uint64

	// Plan-cache outcomes of every server-side Prepare, read from the fresh
	// handle's Stats by the store-tier wrapper.
	planHits, planMisses atomic.Int64
}

type crossKey struct {
	op   uint64
	host int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), crossing: make(map[crossKey]uint64)}
}

// begin starts recording for a workload, dropping what was recorded before.
// One recorder serves every traced segment of a run, so ids stay unique
// across the workloads of one span file.
func (r *recorder) begin(workload string) {
	r.mu.Lock()
	r.workload = workload
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes the spans to path, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPos is the benchmark's own context value: the operation and the
// innermost open span on this goroutine's call path.
type spanPos struct{ op, id uint64 }

type spanPosKey struct{}

// openSpan is a started span; end records it.
type openSpan struct {
	r     *recorder
	s     span
	cross bool
}

// startOp opens one operation: a fresh id, a program trace context under
// that id (so client and router forward it and the program's own spans are
// switched on), and the root span.
func (r *recorder) startOp(ctx context.Context) (context.Context, *openSpan) {
	op := r.nextID.Add(1)
	root := trace.New(trace.ID(op)).StartSpan(0, "bench.op")
	ctx = trace.NewContext(ctx, root)
	o := &openSpan{r: r, s: span{Op: op, ID: r.nextID.Add(1), Name: "op", Host: -1, Start: r.now(), Workload: r.workload}}
	return context.WithValue(ctx, spanPosKey{}, spanPos{op, o.s.ID}), o
}

// start opens a child of the context's innermost span. tier names the layer
// boundary: "repro", "client", "router" and "host" wrap calls the benchmark
// or the router makes; "store" wraps what a server calls, where the
// operation id is read back from the program's trace context.
func (r *recorder) start(ctx context.Context, tier, call, query string, host int) (context.Context, *openSpan) {
	o := &openSpan{r: r, s: span{ID: r.nextID.Add(1), Name: tier + "." + call, Query: query, Host: host, Workload: r.workload}}
	if tier == "store" {
		if sp := trace.FromContext(ctx); sp != nil {
			o.s.Op = uint64(sp.TraceID())
			r.mu.Lock()
			o.s.Parent = r.crossing[crossKey{o.s.Op, host}]
			r.mu.Unlock()
		}
	} else if pos, ok := ctx.Value(spanPosKey{}).(spanPos); ok {
		o.s.Op, o.s.Parent = pos.op, pos.id
		if tier == "client" || tier == "host" {
			o.cross = true
			r.mu.Lock()
			r.crossing[crossKey{pos.op, host}] = o.s.ID
			r.mu.Unlock()
		}
	}
	if o.s.Op != 0 {
		ctx = context.WithValue(ctx, spanPosKey{}, spanPos{o.s.Op, o.s.ID})
	}
	o.s.Start = r.now()
	return ctx, o
}

func (o *openSpan) firstRow() {
	if o.s.FirstRow == 0 {
		o.s.FirstRow = o.r.now()
	}
}

func (o *openSpan) end(rows int64) {
	o.s.End = o.r.now()
	o.s.Rows = rows
	if o.cross {
		o.r.mu.Lock()
		delete(o.r.crossing, crossKey{o.s.Op, o.s.Host})
		o.r.mu.Unlock()
	}
	o.r.add(o.s)
}

// spanQuerier wraps a repro.Querier and records a span around every call
// that executes a query or writes data. It is installed between the
// benchmark and client/router/Store, around each host handed to router.New,
// and as the server's Queriers entry around repro.Local(store).
type spanQuerier struct {
	inner repro.Querier
	r     *recorder
	tier  string
	host  int
}

// traced wraps q when tracing is on and returns it unchanged otherwise.
func traced(q repro.Querier, r *recorder, tier string, host int) repro.Querier {
	if r == nil {
		return q
	}
	return &spanQuerier{inner: q, r: r, tier: tier, host: host}
}

var (
	_ repro.Querier       = (*spanQuerier)(nil)
	_ repro.PreparedQuery = (*spanPrepared)(nil)
	_ repro.QueryTxn      = (*spanTxn)(nil)
)

func (s *spanQuerier) DefineRelation(name string, arity int) error {
	return s.inner.DefineRelation(name, arity)
}
func (s *spanQuerier) Load(name string, tuples [][]int64) error { return s.inner.Load(name, tuples) }
func (s *spanQuerier) Relations() []string                      { return s.inner.Relations() }
func (s *spanQuerier) Arity(name string) (int, error)           { return s.inner.Arity(name) }
func (s *spanQuerier) Schema(ctx context.Context) ([]repro.RelationInfo, error) {
	return s.inner.Schema(ctx)
}
func (s *spanQuerier) ParseQuery(name, src string) (*repro.Query, error) {
	return s.inner.ParseQuery(name, src)
}
func (s *spanQuerier) Close() error { return s.inner.Close() }

// Apply takes no context, so the span it records cannot name its operation.
// The workloads call applyCtx directly to keep the client side attributed;
// the server side of an Apply stays unattributed (Op 0).
func (s *spanQuerier) Apply(name string, inserts, deletes [][]int64) error {
	return s.applyCtx(context.Background(), name, inserts, deletes)
}

func (s *spanQuerier) applyCtx(ctx context.Context, name string, inserts, deletes [][]int64) error {
	_, o := s.r.start(ctx, s.tier, "apply", name, s.host)
	err := s.inner.Apply(name, inserts, deletes)
	o.end(int64(len(inserts) + len(deletes)))
	return err
}

func (s *spanQuerier) ApplyAll(batches map[string][]repro.Delta) error {
	_, o := s.r.start(context.Background(), s.tier, "apply", "", s.host)
	err := s.inner.ApplyAll(batches)
	o.end(0)
	return err
}

func (s *spanQuerier) Prepare(q *repro.Query, opts repro.Options) (repro.PreparedQuery, error) {
	p, err := s.inner.Prepare(q, opts)
	if err != nil {
		return nil, err
	}
	if s.tier == "store" {
		st := p.Stats()
		s.r.planHits.Add(st.PlanCacheHits)
		s.r.planMisses.Add(st.PlanCacheMisses)
	}
	return &spanPrepared{inner: p, q: s, name: q.Name}, nil
}

func (s *spanQuerier) Count(ctx context.Context, q *repro.Query, opts repro.Options) (int64, error) {
	return s.count(ctx, "oneshot", q.Name, func(ctx context.Context) (int64, error) {
		return s.inner.Count(ctx, q, opts)
	})
}

func (s *spanQuerier) Enumerate(ctx context.Context, q *repro.Query, opts repro.Options, emit func([]int64) bool) error {
	return s.enumerate(ctx, "oneshot_rows", q.Name, func(ctx context.Context, emit func([]int64) bool) error {
		return s.inner.Enumerate(ctx, q, opts, emit)
	}, emit)
}

func (s *spanQuerier) ReadTxn() (repro.QueryTxn, error) {
	t, err := s.inner.ReadTxn()
	if err != nil {
		return nil, err
	}
	return &spanTxn{inner: t, q: s}, nil
}

// Batch hands the inner querier its own handles: it would answer
// ErrForeignPrepared for a spanPrepared.
func (s *spanQuerier) Batch(ctx context.Context, reqs []repro.BatchRequest) ([]repro.Result, error) {
	inner := make([]repro.BatchRequest, len(reqs))
	for i, r := range reqs {
		inner[i] = repro.BatchRequest{Prepared: unwrapPrepared(r.Prepared), Rows: r.Rows}
	}
	ctx, o := s.r.start(ctx, s.tier, "batch", "", s.host)
	res, err := s.inner.Batch(ctx, inner)
	o.end(int64(len(reqs)))
	return res, err
}

func unwrapPrepared(p repro.PreparedQuery) repro.PreparedQuery {
	if sp, ok := p.(*spanPrepared); ok {
		return sp.inner
	}
	return p
}

// spanPrepared wraps a prepared handle of the wrapped querier.
type spanPrepared struct {
	inner repro.PreparedQuery
	q     *spanQuerier
	name  string
}

func (p *spanPrepared) Query() *repro.Query    { return p.inner.Query() }
func (p *spanPrepared) Algorithm() string      { return p.inner.Algorithm() }
func (p *spanPrepared) Stats() repro.ExecStats { return p.inner.Stats() }
func (p *spanPrepared) Close() error           { return p.inner.Close() }

func (p *spanPrepared) Count(ctx context.Context) (int64, error) {
	return p.q.count(ctx, "count", p.name, p.inner.Count)
}

func (p *spanPrepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	return p.q.enumerate(ctx, "rows", p.name, p.inner.Enumerate, emit)
}

func (p *spanPrepared) Rows(ctx context.Context) iter.Seq[[]int64] {
	return p.q.rows(ctx, p.name, p.inner.Rows)
}

func (p *spanPrepared) RowsErr(ctx context.Context) iter.Seq2[[]int64, error] {
	return p.q.rowsErr(ctx, p.name, p.inner.RowsErr)
}

// spanTxn wraps a read-transaction of the wrapped querier; every method
// unwraps the handle it is given before delegating.
type spanTxn struct {
	inner repro.QueryTxn
	q     *spanQuerier
}

func (t *spanTxn) Close() error { return t.inner.Close() }

func (t *spanTxn) Count(ctx context.Context, p repro.PreparedQuery) (int64, error) {
	return t.q.count(ctx, "count", p.Query().Name, func(ctx context.Context) (int64, error) {
		return t.inner.Count(ctx, unwrapPrepared(p))
	})
}

func (t *spanTxn) Enumerate(ctx context.Context, p repro.PreparedQuery, emit func([]int64) bool) error {
	return t.q.enumerate(ctx, "rows", p.Query().Name, func(ctx context.Context, emit func([]int64) bool) error {
		return t.inner.Enumerate(ctx, unwrapPrepared(p), emit)
	}, emit)
}

func (t *spanTxn) Rows(ctx context.Context, p repro.PreparedQuery) iter.Seq[[]int64] {
	return t.q.rows(ctx, p.Query().Name, func(ctx context.Context) iter.Seq[[]int64] {
		return t.inner.Rows(ctx, unwrapPrepared(p))
	})
}

func (t *spanTxn) RowsErr(ctx context.Context, p repro.PreparedQuery) iter.Seq2[[]int64, error] {
	return t.q.rowsErr(ctx, p.Query().Name, func(ctx context.Context) iter.Seq2[[]int64, error] {
		return t.inner.RowsErr(ctx, unwrapPrepared(p))
	})
}

// The four execution shapes, shared by spanPrepared and spanTxn.

func (s *spanQuerier) count(ctx context.Context, call, query string, run func(context.Context) (int64, error)) (int64, error) {
	ctx, o := s.r.start(ctx, s.tier, call, query, s.host)
	n, err := run(ctx)
	o.end(0)
	return n, err
}

func (s *spanQuerier) enumerate(ctx context.Context, call, query string, run func(context.Context, func([]int64) bool) error, emit func([]int64) bool) error {
	ctx, o := s.r.start(ctx, s.tier, call, query, s.host)
	var n int64
	err := run(ctx, func(row []int64) bool {
		o.firstRow()
		n++
		return emit(row)
	})
	o.end(n)
	return err
}

func (s *spanQuerier) rows(ctx context.Context, query string, run func(context.Context) iter.Seq[[]int64]) iter.Seq[[]int64] {
	return func(yield func([]int64) bool) {
		ctx, o := s.r.start(ctx, s.tier, "rows", query, s.host)
		var n int64
		for row := range run(ctx) {
			o.firstRow()
			n++
			if !yield(row) {
				break
			}
		}
		o.end(n)
	}
}

func (s *spanQuerier) rowsErr(ctx context.Context, query string, run func(context.Context) iter.Seq2[[]int64, error]) iter.Seq2[[]int64, error] {
	return func(yield func([]int64, error) bool) {
		ctx, o := s.r.start(ctx, s.tier, "rows", query, s.host)
		var n int64
		for row, err := range run(ctx) {
			if err == nil {
				o.firstRow()
				n++
			}
			if !yield(row, err) {
				break
			}
		}
		o.end(n)
	}
}

// apply is Querier.Apply that keeps the call inside the operation in ctx when
// q is a span wrapper.
func apply(ctx context.Context, q repro.Querier, name string, inserts, deletes [][]int64) error {
	if s, ok := q.(*spanQuerier); ok {
		return s.applyCtx(ctx, name, inserts, deletes)
	}
	return q.Apply(name, inserts, deletes)
}

// spanTree indexes one segment's spans for the per-layer arithmetic.
type spanTree struct {
	spans    []span
	children map[uint64][]int // parent span id -> indexes into spans
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[uint64][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// named returns the spans with the given name (and query, when not "").
func (t *spanTree) named(name, query string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (query == "" || s.Query == query) {
			out = append(out, s)
		}
	}
	return out
}

// descendants returns every span below s with the given name.
func (t *spanTree) descendants(s span, name string) []span {
	var out []span
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, i := range t.children[id] {
			c := t.spans[i]
			if c.Name == name {
				out = append(out, c)
			}
			walk(c.ID)
		}
	}
	walk(s.ID)
	return out
}

// covered is the part of s's interval that its direct children cover (the
// union of their intervals, clipped to s); self time is dur − covered.
func (t *spanTree) covered(s span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range t.children[s.ID] {
		c := t.spans[i]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Few children per span: insertion sort by start.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// checkNesting verifies the recorded tree: every attributed span's parent
// exists in the same operation and contains it in time.
func checkNesting(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Op == 0 || s.Name == "op" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s (op %d) has no recorded parent %d", s.Name, s.Op, s.Parent)
		}
		if p.Op != s.Op {
			return fmt.Errorf("span %s is in op %d, its parent %s in op %d", s.Name, s.Op, p.Name, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s [%d,%d] is not inside its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}
