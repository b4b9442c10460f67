package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// errUnknownStore aliases the wire sentinel so server.go stays
// protocol-agnostic.
var errUnknownStore = wire.ErrUnknownStore

// errStreamCancelled marks a Rows stream stopped by a client Cancel frame
// (distinct from the request context being cancelled server-side).
var errStreamCancelled = errors.New("server: stream cancelled by client")

// Flow-control bounds for Rows streams. The client proposes chunk size and
// initial credit in its Rows request; the server clamps both into a sane
// range so a hostile peer can neither force huge frames nor disable flow
// control.
const (
	defaultChunkRows = 256
	maxChunkRows     = 1 << 16
	defaultCredit    = 8
	maxCredit        = 1 << 10
)

// conn is one client connection: its store binding, its prepared-statement
// and transaction tables, and the bookkeeping that lets concurrently running
// requests be cancelled and Rows streams be flow-controlled.
type conn struct {
	srv *Server
	nc  net.Conn

	// wmu serializes frame writes: responses from concurrent request
	// goroutines and stream chunks interleave at frame granularity.
	wmu sync.Mutex
	fw  wire.FrameWriter

	// ctx is cancelled when the connection closes; per-request contexts
	// derive from it, so force-closing a connection cancels its work.
	ctx    context.Context
	cancel context.CancelFunc

	// tenant is the backend the Hello exchange bound; nil before it.
	tenant *tenant

	mu       sync.Mutex
	prepared map[uint64]repro.PreparedQuery
	txns     map[uint64]repro.QueryTxn
	nextPrep uint64
	nextTxn  uint64
	// requests maps in-flight request ids to their cancel functions (for
	// client Cancel frames); streams maps Rows request ids to their
	// flow-control state (for Credit frames).
	requests map[uint64]context.CancelFunc
	streams  map[uint64]*stream
	// leaseToks maps transaction ids to their lease-tracker tokens so the
	// lease-age gauges drop a lease at End or connection teardown.
	leaseToks map[uint64]uint64
}

func newConn(srv *Server, nc net.Conn) *conn {
	ctx, cancel := context.WithCancel(context.Background())
	return &conn{
		srv:       srv,
		nc:        nc,
		fw:        wire.FrameWriter{W: nc},
		ctx:       ctx,
		cancel:    cancel,
		prepared:  make(map[uint64]repro.PreparedQuery),
		txns:      make(map[uint64]repro.QueryTxn),
		requests:  make(map[uint64]context.CancelFunc),
		streams:   make(map[uint64]*stream),
		leaseToks: make(map[uint64]uint64),
	}
}

// close tears the connection down: in-flight requests see their contexts
// cancelled and the read loop unblocks.
func (c *conn) close() {
	c.cancel()
	c.nc.Close()
}

// send writes one frame under the write lock.
func (c *conn) send(typ byte, reqID uint64, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fw.Write(typ, reqID, body)
}

func (c *conn) sendOK(reqID uint64) error { return c.send(wire.TOK, reqID, nil) }

func (c *conn) sendErr(reqID uint64, err error) error {
	return c.send(wire.TErr, reqID, wire.EncodeErr(err))
}

// serve runs the connection: the Hello exchange binds a store, then the read
// loop dispatches requests. Control frames (Credit, Cancel) are handled
// inline — they steer goroutines that may be blocked — and every other
// request runs in its own goroutine so one long Count never delays another
// request's cancellation.
func (c *conn) serve() {
	defer func() {
		c.close()
		c.srv.removeConn(c)
		if c.tenant != nil {
			c.tenant.metrics.connections.Dec()
			// Leases die with the connection; drop them from the age gauges.
			c.mu.Lock()
			toks := make([]uint64, 0, len(c.leaseToks))
			for _, tok := range c.leaseToks {
				toks = append(toks, tok)
			}
			c.leaseToks = nil
			c.mu.Unlock()
			for _, tok := range toks {
				c.tenant.leases.remove(tok)
			}
		}
		// Release backend-held resources. Local handles hold none; a routed
		// backend frees its downstream prepared entries and snapshot leases.
		c.mu.Lock()
		txns := make([]repro.QueryTxn, 0, len(c.txns))
		for _, t := range c.txns {
			txns = append(txns, t)
		}
		preps := make([]repro.PreparedQuery, 0, len(c.prepared))
		for _, p := range c.prepared {
			preps = append(preps, p)
		}
		// Fresh maps rather than nil: a request goroutine still draining may
		// insert a late handle, which must not panic (it is simply dropped
		// with the conn).
		c.txns = make(map[uint64]repro.QueryTxn)
		c.prepared = make(map[uint64]repro.PreparedQuery)
		c.mu.Unlock()
		for _, t := range txns {
			t.Close()
		}
		for _, p := range preps {
			p.Close()
		}
	}()
	br := bufio.NewReader(c.nc)
	if !c.handshake(br) {
		return
	}
	for {
		typ, reqID, body, err := wire.ReadFrame(br)
		if err != nil {
			// A hangup is the normal end of a connection; anything else is
			// a protocol-level problem worth surfacing to the operator.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.srv.logf("conn %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		switch typ {
		case wire.TCredit:
			d := wire.NewDec(body)
			n := d.Int()
			if d.Err() == nil {
				c.creditStream(reqID, n)
			}
		case wire.TCancel:
			c.cancelRequest(reqID)
		default:
			if !c.srv.startRequest() {
				c.sendErr(reqID, wire.ErrShuttingDown)
				continue
			}
			rctx, rcancel := context.WithCancel(c.ctx)
			c.mu.Lock()
			c.requests[reqID] = rcancel
			c.mu.Unlock()
			go func(typ byte, reqID uint64, body []byte) {
				defer c.srv.inflight.Done()
				defer func() {
					c.mu.Lock()
					delete(c.requests, reqID)
					c.mu.Unlock()
					rcancel()
				}()
				c.dispatch(rctx, typ, reqID, body)
			}(typ, reqID, body)
		}
	}
}

// handshake performs the Hello exchange; on failure it answers with the
// error and reports false so the connection closes.
func (c *conn) handshake(br *bufio.Reader) bool {
	typ, reqID, body, err := wire.ReadFrame(br)
	if err != nil {
		return false
	}
	if typ != wire.THello {
		c.sendErr(reqID, fmt.Errorf("server: expected Hello, got frame 0x%02x: %w", typ, wire.ErrProtocol))
		return false
	}
	d := wire.NewDec(body)
	version := d.U64()
	storeName := d.Str()
	if d.Err() != nil {
		c.sendErr(reqID, fmt.Errorf("server: malformed Hello: %w", wire.ErrProtocol))
		return false
	}
	if version != wire.ProtocolVersion {
		c.sendErr(reqID, fmt.Errorf("server: client speaks protocol %d, server %d: %w",
			version, wire.ProtocolVersion, wire.ErrVersion))
		return false
	}
	t, err := c.srv.lookupStore(storeName)
	if err != nil {
		c.sendErr(reqID, err)
		return false
	}
	c.tenant = t
	t.metrics.connections.Inc()
	var e wire.Enc
	e.U64(wire.ProtocolVersion)
	return c.send(wire.THelloOK, reqID, e.Bytes()) == nil
}

// cancelRequest serves a client Cancel frame: it cancels the in-flight
// request's context and, for Rows requests, marks the stream cancelled so a
// producer blocked on credit wakes up.
func (c *conn) cancelRequest(target uint64) {
	c.mu.Lock()
	cancel := c.requests[target]
	st := c.streams[target]
	c.mu.Unlock()
	if st != nil {
		st.cancelClient()
	}
	if cancel != nil {
		cancel()
	}
}

func (c *conn) creditStream(target uint64, n int) {
	c.mu.Lock()
	st := c.streams[target]
	c.mu.Unlock()
	if st != nil && n > 0 {
		st.add(n)
	}
}

// dispatch runs one request through admission control and the metrics
// envelope. Admission runs here — in the request's own goroutine, never the
// connection read loop — so a queued request cannot block the Credit and
// Cancel frames that unblock requests already running. The requests_total
// increment happens before the handler (and thus before any response frame),
// so a scrape taken after a client received all its responses matches the
// client's request count exactly.
func (c *conn) dispatch(ctx context.Context, typ byte, reqID uint64, body []byte) {
	t := c.tenant
	if err := t.adm.acquire(ctx); err != nil {
		t.metrics.rejected.Inc()
		c.sendErr(reqID, err)
		return
	}
	defer t.adm.release()
	t.metrics.admitted(typ)
	// Protocol v4: every dispatched request leads with a trace context. A
	// client-traced request opens a root span parented at the client's span;
	// an untraced one is sampled into an internal trace when the slow-query
	// log needs span trees. tr == nil is the common fast path.
	d := wire.NewDec(body)
	traceID, parentSpan := wire.DecodeTraceContext(d)
	if d.Err() != nil {
		c.sendErr(reqID, fmt.Errorf("server: malformed trace context: %w", wire.ErrProtocol))
		return
	}
	body = d.Rest()
	var tr *trace.Trace
	var root *trace.Span
	switch {
	case traceID != 0:
		tr = trace.New(trace.ID(traceID))
		if typ != wire.TTrace {
			c.srv.traces.begin(tr.ID())
			defer c.srv.traces.end(tr.ID())
		}
	case c.srv.traces.sampler.Sample():
		tr = trace.New(trace.NewID())
	}
	if tr != nil {
		root = tr.StartSpan(trace.SpanID(parentSpan), "server."+requestName(typ))
		ctx = trace.NewContext(ctx, root)
	}
	start := time.Now()
	err := c.handle(ctx, typ, reqID, body)
	t.metrics.done(typ, start, err)
	root.End()
	c.srv.traces.observe(t.name, requestName(typ), tr, time.Since(start), err)
	if err != nil {
		c.sendErr(reqID, err)
	}
}

// handle answers one request, returning the error to answer it with (nil
// when the handler already sent its response). Failures answer only this
// request (TErr under its request id); the connection keeps serving.
func (c *conn) handle(ctx context.Context, typ byte, reqID uint64, body []byte) error {
	var err error
	switch typ {
	case wire.TDefine:
		err = c.handleDefine(reqID, body)
	case wire.TLoad:
		err = c.handleLoad(reqID, body)
	case wire.TApply:
		err = c.handleApply(reqID, body)
	case wire.TApplyAll:
		err = c.handleApplyAll(reqID, body)
	case wire.TParse:
		err = c.handleParse(reqID, body)
	case wire.TPrepare:
		err = c.handlePrepare(ctx, reqID, body)
	case wire.TClosePrepared:
		err = c.handleClosePrepared(reqID, body)
	case wire.TCount:
		err = c.handleCount(ctx, reqID, body)
	case wire.TRows:
		err = c.handleRows(ctx, reqID, body)
	case wire.TBegin:
		err = c.handleBegin(reqID)
	case wire.TEnd:
		err = c.handleEnd(reqID, body)
	case wire.TBatch:
		err = c.handleBatch(ctx, reqID, body)
	case wire.TStats:
		err = c.handleStats(reqID, body)
	case wire.TExplain:
		err = c.handleExplain(ctx, reqID, body)
	case wire.TRelations:
		err = c.handleRelations(ctx, reqID)
	case wire.TMetrics:
		err = c.handleMetrics(reqID)
	case wire.TTrace:
		err = c.handleTrace(ctx, reqID, body)
	default:
		err = fmt.Errorf("server: unknown frame type 0x%02x: %w", typ, wire.ErrProtocol)
	}
	return err
}

// decodeErr wraps a payload-decoding failure as a protocol error.
func decodeErr(d *wire.Dec) error {
	return fmt.Errorf("server: malformed request: %v: %w", d.Err(), wire.ErrProtocol)
}

// fingerprintSpan attaches the plan fingerprint (query source form and
// engine) to the request's root span — what the slow-query log keys on.
func fingerprintSpan(ctx context.Context, p repro.PreparedQuery) {
	if sp := trace.FromContext(ctx); sp != nil {
		sp.SetStr("query", p.Query().String())
		sp.SetStr("algorithm", p.Algorithm())
	}
}

func (c *conn) handleDefine(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	name := d.Str()
	arity := d.Int()
	if d.Err() != nil {
		return decodeErr(d)
	}
	if err := c.tenant.store.DefineRelation(name, arity); err != nil {
		return err
	}
	return c.sendOK(reqID)
}

func (c *conn) handleLoad(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	name := d.Str()
	tuples := d.Tuples()
	if d.Err() != nil {
		return decodeErr(d)
	}
	if err := c.tenant.store.Load(name, tuples); err != nil {
		return err
	}
	return c.sendOK(reqID)
}

func (c *conn) handleApply(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	name := d.Str()
	ins := d.Tuples()
	dels := d.Tuples()
	if d.Err() != nil {
		return decodeErr(d)
	}
	if err := c.tenant.store.Apply(name, ins, dels); err != nil {
		return err
	}
	return c.sendOK(reqID)
}

func (c *conn) handleApplyAll(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	n := d.Count()
	batches := make(map[string][]repro.Delta, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		name := d.Str()
		var deltas []repro.Delta
		for _, t := range d.Tuples() {
			deltas = append(deltas, repro.Delta{Tuple: t})
		}
		for _, t := range d.Tuples() {
			deltas = append(deltas, repro.Delta{Tuple: t, Delete: true})
		}
		batches[name] = append(batches[name], deltas...)
	}
	if d.Err() != nil {
		return decodeErr(d)
	}
	if err := c.tenant.store.ApplyAll(batches); err != nil {
		return err
	}
	return c.sendOK(reqID)
}

func (c *conn) handleParse(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	name := d.Str()
	src := d.Str()
	if d.Err() != nil {
		return decodeErr(d)
	}
	q, err := c.tenant.store.ParseQuery(name, src)
	if err != nil {
		return err
	}
	var e wire.Enc
	wire.FromQuery(q).Encode(&e)
	return c.send(wire.TParseOK, reqID, e.Bytes())
}

func (c *conn) handlePrepare(ctx context.Context, reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	wq := wire.DecodeQuery(d)
	opts := wire.DecodeOptions(d)
	if d.Err() != nil {
		return decodeErr(d)
	}
	q, err := wq.ToQuery()
	if err != nil {
		return err
	}
	_, sp := trace.Start(ctx, "prepare")
	p, err := c.tenant.store.Prepare(q, opts)
	if sp != nil {
		if err == nil {
			// The planning block moves only at Prepare time, so the handle's
			// counters are exactly this compilation's plan-cache and
			// index-binding work.
			st := p.Stats()
			sp.SetStr("query", p.Query().String())
			sp.SetStr("algorithm", p.Algorithm())
			sp.SetInt("plan_cache_hits", st.PlanCacheHits)
			sp.SetInt("plan_cache_misses", st.PlanCacheMisses)
			sp.SetInt("index_bindings", st.IndexBindings)
		}
		sp.End()
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nextPrep++
	handle := c.nextPrep
	c.prepared[handle] = p
	c.mu.Unlock()
	var e wire.Enc
	e.U64(handle)
	e.Str(p.Algorithm())
	return c.send(wire.TPrepareOK, reqID, e.Bytes())
}

func (c *conn) handleClosePrepared(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	handle := d.U64()
	if d.Err() != nil {
		return decodeErr(d)
	}
	c.mu.Lock()
	p, ok := c.prepared[handle]
	delete(c.prepared, handle)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: close of handle %d: %w", handle, wire.ErrUnknownHandle)
	}
	if err := p.Close(); err != nil {
		return err
	}
	return c.sendOK(reqID)
}

// lookupPrepared resolves a prepared-statement handle.
func (c *conn) lookupPrepared(handle uint64) (repro.PreparedQuery, error) {
	c.mu.Lock()
	p, ok := c.prepared[handle]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: handle %d: %w", handle, wire.ErrUnknownHandle)
	}
	return p, nil
}

// lookupTxn resolves a transaction id; id 0 means "no transaction".
func (c *conn) lookupTxn(id uint64) (repro.QueryTxn, error) {
	if id == 0 {
		return nil, nil
	}
	c.mu.Lock()
	t, ok := c.txns[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: transaction %d: %w", id, wire.ErrUnknownTxn)
	}
	return t, nil
}

func (c *conn) handleCount(ctx context.Context, reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	handle := d.U64()
	txnID := d.U64()
	if d.Err() != nil {
		return decodeErr(d)
	}
	p, err := c.lookupPrepared(handle)
	if err != nil {
		return err
	}
	t, err := c.lookupTxn(txnID)
	if err != nil {
		return err
	}
	fingerprintSpan(ctx, p)
	n, err := repro.Exec(ctx, t, p, nil)
	if err != nil {
		return err
	}
	var e wire.Enc
	e.I64(n)
	return c.send(wire.TCountOK, reqID, e.Bytes())
}

func (c *conn) handleBegin(reqID uint64) error {
	t, err := c.tenant.store.ReadTxn()
	if err != nil {
		return err
	}
	tok := c.tenant.leases.add()
	c.mu.Lock()
	c.nextTxn++
	id := c.nextTxn
	c.txns[id] = t
	if c.leaseToks != nil {
		c.leaseToks[id] = tok
	}
	c.mu.Unlock()
	var e wire.Enc
	e.U64(id)
	return c.send(wire.TBeginOK, reqID, e.Bytes())
}

func (c *conn) handleEnd(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	id := d.U64()
	if d.Err() != nil {
		return decodeErr(d)
	}
	c.mu.Lock()
	t, ok := c.txns[id]
	delete(c.txns, id)
	tok, hadTok := c.leaseToks[id]
	delete(c.leaseToks, id)
	c.mu.Unlock()
	if hadTok {
		c.tenant.leases.remove(tok)
	}
	if !ok {
		return fmt.Errorf("server: end of transaction %d: %w", id, wire.ErrUnknownTxn)
	}
	if err := t.Close(); err != nil {
		return err
	}
	return c.sendOK(reqID)
}

func (c *conn) handleBatch(ctx context.Context, reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	// Count() validates against the remaining payload, so a corrupt frame
	// cannot size the allocation.
	n := d.Count()
	type slotReq struct {
		handle uint64
		rows   bool
	}
	reqs := make([]slotReq, n)
	for i := range reqs {
		reqs[i] = slotReq{handle: d.U64(), rows: d.Bool()}
	}
	if d.Err() != nil {
		return decodeErr(d)
	}
	// Unknown handles are isolated into their own results, exactly as Batch
	// isolates execution failures; the known ones run as one shared-snapshot
	// batch.
	results := make([]repro.Result, n)
	var batch []repro.BatchRequest
	var slots []int
	for i, r := range reqs {
		p, err := c.lookupPrepared(r.handle)
		if err != nil {
			results[i] = repro.Result{Err: err}
			continue
		}
		batch = append(batch, repro.BatchRequest{Prepared: p, Rows: r.rows})
		slots = append(slots, i)
	}
	batchRes, err := c.tenant.store.Batch(ctx, batch)
	if err != nil {
		return err
	}
	for j, res := range batchRes {
		results[slots[j]] = res
	}
	var e wire.Enc
	e.Int(len(results))
	for _, res := range results {
		e.I64(res.Count)
		e.Tuples(res.Rows)
		if res.Err != nil {
			e.Str(wire.ErrorCode(res.Err))
			e.Str(res.Err.Error())
		} else {
			e.Str("")
			e.Str("")
		}
	}
	return c.send(wire.TBatchOK, reqID, e.Bytes())
}

func (c *conn) handleStats(reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	handle := d.U64()
	if d.Err() != nil {
		return decodeErr(d)
	}
	p, err := c.lookupPrepared(handle)
	if err != nil {
		return err
	}
	var e wire.Enc
	wire.EncodeStats(&e, p.Stats())
	return c.send(wire.TStatsOK, reqID, e.Bytes())
}

func (c *conn) handleExplain(ctx context.Context, reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	handle := d.U64()
	if d.Err() != nil {
		return decodeErr(d)
	}
	p, err := c.lookupPrepared(handle)
	if err != nil {
		return err
	}
	text, err := repro.ExplainText(ctx, p)
	if err != nil {
		return err
	}
	if text == "" {
		text = "explain unavailable for this handle"
	}
	var e wire.Enc
	e.Str(text)
	return c.send(wire.TExplainOK, reqID, e.Bytes())
}

// handleMetrics answers with the process metrics registry rendered in the
// Prometheus text format — the wire-level counterpart of the -metrics-addr
// HTTP endpoint, so clients (graphjoin -connect -stats) can inspect a server
// without a second listener.
func (c *conn) handleMetrics(reqID uint64) error {
	var sb strings.Builder
	if err := metrics.Default().WritePrometheus(&sb); err != nil {
		return err
	}
	var e wire.Enc
	e.Str(sb.String())
	return c.send(wire.TMetricsOK, reqID, e.Bytes())
}

func (c *conn) handleRelations(ctx context.Context, reqID uint64) error {
	infos, err := c.tenant.store.Schema(ctx)
	if err != nil {
		return err
	}
	var e wire.Enc
	e.Int(len(infos))
	for _, info := range infos {
		e.Str(info.Name)
		e.Int(info.Arity)
	}
	return c.send(wire.TRelationsOK, reqID, e.Bytes())
}
