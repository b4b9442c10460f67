// Package client connects to a graphjoind server (repro/server) and exposes
// the repro.Store surface over the network: the same schema operations,
// prepared queries, snapshot read-transactions, and shared-snapshot batches,
// with the execution happening server-side against shared indexes. A Store
// here satisfies repro.Querier, so code written against that interface flips
// between embedded and client/server deployment with one constructor change:
//
//	q := repro.Local(store)                     // in-process
//	q, err := client.Dial(ctx, "db-host:7474")  // remote
//
// One connection multiplexes concurrent requests: every request carries an
// id, responses are routed back by id, and Rows streams are flow-controlled
// (the server ships chunks only against client-granted credit) so one slow
// consumer never buffers unboundedly server-side and breaking out of a
// result loop stops the server-side join mid-execution.
//
// A Store is safe for concurrent use. Typed errors cross the wire: failures
// still satisfy errors.Is against repro.ErrUnknownRelation,
// repro.ErrArityMismatch, and the other public sentinels.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Protocol-level failures re-exported from the wire layer, so callers can
// errors.Is without importing internal packages.
var (
	// ErrClosed reports a request on a closed client.
	ErrClosed = errors.New("client: connection closed")
	// ErrShuttingDown reports a request refused by a draining server.
	ErrShuttingDown = wire.ErrShuttingDown
	// ErrOverloaded reports a request rejected by the server's per-store
	// admission control (in-flight budget exhausted, queue full). The
	// request never started; retrying after backoff is safe.
	ErrOverloaded = wire.ErrOverloaded
	// ErrUnknownStore reports a Dial naming a store the server does not host.
	ErrUnknownStore = wire.ErrUnknownStore
	// ErrUnknownHandle reports a prepared handle the server no longer holds.
	ErrUnknownHandle = wire.ErrUnknownHandle
	// ErrUnknownTxn reports a transaction the server no longer holds.
	ErrUnknownTxn = wire.ErrUnknownTxn
	// ErrVersion reports a protocol-version mismatch with the server.
	ErrVersion = wire.ErrVersion
	// ErrProtocol reports a malformed frame from the server.
	ErrProtocol = wire.ErrProtocol
)

// Option configures a Dial.
type Option func(*config)

type config struct {
	store        string
	chunkRows    int
	credit       int
	reqTimeout   time.Duration
	dialAttempts int
	dialBackoff  time.Duration
}

// WithStore selects the named store on a multi-tenant server (default
// "default").
func WithStore(name string) Option { return func(c *config) { c.store = name } }

// WithRequestTimeout bounds each context-less Store-surface call
// (DefineRelation, Load, Apply, ApplyAll, ParseQuery, Prepare, ReadTxn,
// Relations, Arity, and the handle Close calls) — those methods mirror
// repro.Store signatures, which carry no context, so this is the
// connection-level escape hatch against an unresponsive server. Zero (the
// default) means no timeout. Methods that do take a context (Count,
// Enumerate, Rows, Batch, Schema) are governed by their caller's context
// and unaffected.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.reqTimeout = d }
}

// WithDialRetry makes Dial retry transport-level connection failures (e.g.
// connection refused while the server is still booting) up to attempts total
// tries, sleeping backoff before the first retry and doubling it each
// further try. The Dial context still governs the whole sequence — its
// cancellation or deadline cuts the retries short. Handshake rejections
// (protocol version, unknown store) are not retried: the server answered,
// and it would answer the same way again. Attempts below 1 mean one try;
// backoff at or below zero defaults to 50ms.
func WithDialRetry(attempts int, backoff time.Duration) Option {
	return func(c *config) {
		c.dialAttempts = attempts
		c.dialBackoff = backoff
	}
}

// WithStreamTuning sets the Rows flow-control parameters: tuples per chunk
// and the credit window in chunks (how many chunks the server may send ahead
// of consumption). Zero keeps a parameter at its default (256 and 8); the
// server clamps both into its own sane range.
func WithStreamTuning(chunkRows, credit int) Option {
	return func(c *config) {
		c.chunkRows = chunkRows
		c.credit = credit
	}
}

// Store is a remote repro.Store. Create one with Dial (or New over an
// existing connection); it satisfies repro.Querier.
type Store struct {
	nc  net.Conn
	cfg config

	// wmu serializes frame writes from concurrent requests.
	wmu sync.Mutex
	fw  wire.FrameWriter

	mu      sync.Mutex
	pending map[uint64]*call
	closed  bool
	err     error // first transport failure; sticky

	nextReq  atomic.Uint64
	readDone chan struct{}
}

var (
	_ repro.Querier       = (*Store)(nil)
	_ repro.PreparedQuery = (*Prepared)(nil)
	_ repro.QueryTxn      = (*Txn)(nil)
)

// frame is one routed response.
type frame struct {
	typ  byte
	body []byte
}

// call is one in-flight request's response mailbox. Unary requests buffer a
// single frame; Rows streams buffer their whole credit window so the read
// loop never blocks on a slow stream consumer.
type call struct {
	ch chan frame
}

// Dial connects to a graphjoind server and performs the Hello exchange
// (protocol version check and store selection). The context governs dialing
// and the handshake only — not the connection's lifetime. With WithDialRetry
// configured, connection failures are retried with exponential backoff.
func Dial(ctx context.Context, addr string, opts ...Option) (*Store, error) {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	attempts := cfg.dialAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := cfg.dialBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				return nil, fmt.Errorf("client: dial %s: %w (last attempt: %v)", addr, ctx.Err(), lastErr)
			}
		}
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: dial %s: %w", addr, err)
			}
			continue
		}
		s, err := New(ctx, nc, opts...)
		if err != nil {
			nc.Close()
			// The server spoke: a handshake rejection (version, unknown
			// store) is deterministic and not worth retrying.
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("client: dial %s: %w", addr, lastErr)
}

// New wraps an established connection (Dial's transport-agnostic core; tests
// and embedded setups can hand it any net.Conn).
func New(ctx context.Context, nc net.Conn, opts ...Option) (*Store, error) {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Store{
		nc:       nc,
		cfg:      cfg,
		fw:       wire.FrameWriter{W: nc},
		pending:  make(map[uint64]*call),
		readDone: make(chan struct{}),
	}
	go s.readLoop()
	var e wire.Enc
	e.U64(wire.ProtocolVersion)
	e.Str(cfg.store)
	if _, err := s.roundTrip(ctx, wire.THello, e.Bytes(), wire.THelloOK); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close closes the connection; the server drops the connection's prepared
// handles and transactions. Safe to call concurrently and repeatedly.
func (s *Store) Close() error {
	s.fail(ErrClosed)
	return nil
}

// fail records the first transport-level failure, unblocks every waiter, and
// closes the connection. All later requests report the recorded error.
func (s *Store) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	close(s.readDone)
	s.mu.Unlock()
	s.nc.Close()
}

// transportErr returns the sticky failure.
func (s *Store) transportErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrClosed
}

// readLoop routes every incoming frame to its request's mailbox. Frames for
// unknown ids (responses to requests abandoned at context cancellation) are
// dropped. A mailbox overflow means the server violated flow control; the
// connection is failed rather than blocking the loop.
func (s *Store) readLoop() {
	br := bufio.NewReader(s.nc)
	for {
		typ, reqID, body, err := wire.ReadFrame(br)
		if err != nil {
			s.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		s.mu.Lock()
		c := s.pending[reqID]
		s.mu.Unlock()
		if c == nil {
			continue
		}
		select {
		case c.ch <- frame{typ, body}:
		default:
			s.fail(fmt.Errorf("client: server overflowed the credit window: %w", ErrProtocol))
			return
		}
	}
}

// register allocates a request id with a response mailbox of the given
// capacity.
func (s *Store) register(buf int) (uint64, *call, error) {
	id := s.nextReq.Add(1)
	c := &call{ch: make(chan frame, buf)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, s.errLocked()
	}
	s.pending[id] = c
	return id, c, nil
}

func (s *Store) errLocked() error {
	if s.err != nil {
		return s.err
	}
	return ErrClosed
}

func (s *Store) deregister(id uint64) {
	s.mu.Lock()
	delete(s.pending, id)
	s.mu.Unlock()
}

// write sends one frame under the write lock.
func (s *Store) write(typ byte, reqID uint64, body []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// An oversized frame is rejected before any byte touches the wire: the
	// request fails but the connection is still in sync — don't poison it
	// for the other multiplexed requests.
	err := s.fw.Write(typ, reqID, body)
	if err != nil && !errors.Is(err, wire.ErrFrameTooLarge) {
		s.fail(err)
	}
	return err
}

// sendCancel asks the server to stop an in-flight request (best effort).
func (s *Store) sendCancel(id uint64) {
	s.write(wire.TCancel, id, nil)
}

// traceBody prepends the protocol-v4 trace context to a request body: the
// active span from ctx when the caller is tracing, the one-byte untraced
// marker otherwise.
func traceBody(ctx context.Context, body []byte) []byte {
	sp := trace.FromContext(ctx)
	var e wire.Enc
	wire.EncodeTraceContext(&e, uint64(sp.TraceID()), uint64(sp.ID()))
	e.Raw(body)
	return e.Bytes()
}

// roundTrip performs one unary request: register, send, await the response,
// and verify its type. Context cancellation abandons the request and tells
// the server to stop it. Every request except the Hello itself carries the
// trace-context prefix (the Hello negotiates the version that defines it).
func (s *Store) roundTrip(ctx context.Context, typ byte, body []byte, want byte) ([]byte, error) {
	id, c, err := s.register(1)
	if err != nil {
		return nil, err
	}
	defer s.deregister(id)
	if typ != wire.THello {
		body = traceBody(ctx, body)
	}
	if err := s.write(typ, id, body); err != nil {
		return nil, err
	}
	select {
	case f := <-c.ch:
		switch f.typ {
		case want:
			return f.body, nil
		case wire.TErr:
			return nil, wire.DecodeErr(f.body)
		default:
			err := fmt.Errorf("client: unexpected response frame 0x%02x to request 0x%02x: %w", f.typ, typ, ErrProtocol)
			s.fail(err)
			return nil, err
		}
	case <-ctx.Done():
		s.sendCancel(id)
		return nil, ctx.Err()
	case <-s.readDone:
		return nil, s.transportErr()
	}
}

// opCtx returns the context governing one context-less Store-surface call:
// the WithRequestTimeout deadline when configured, unbounded otherwise.
func (s *Store) opCtx() (context.Context, context.CancelFunc) {
	if s.cfg.reqTimeout > 0 {
		return context.WithTimeout(context.Background(), s.cfg.reqTimeout)
	}
	return context.Background(), func() {}
}

// roundTripOp is roundTrip under the connection's operation context (the
// ctx-less Store-surface methods route through it).
func (s *Store) roundTripOp(typ byte, body []byte, want byte) ([]byte, error) {
	ctx, cancel := s.opCtx()
	defer cancel()
	return s.roundTrip(ctx, typ, body, want)
}

// DefineRelation declares a named relation of the given arity on the server;
// see repro.Store.DefineRelation.
func (s *Store) DefineRelation(name string, arity int) error {
	var e wire.Enc
	e.Str(name)
	e.Int(arity)
	_, err := s.roundTripOp(wire.TDefine, e.Bytes(), wire.TOK)
	return err
}

// Load replaces the named relation's contents; see repro.Store.Load.
func (s *Store) Load(name string, tuples [][]int64) error {
	var e wire.Enc
	e.Str(name)
	e.Tuples(tuples)
	_, err := s.roundTripOp(wire.TLoad, e.Bytes(), wire.TOK)
	return err
}

// Apply applies an incremental update batch to the named relation; see
// repro.Store.Apply.
func (s *Store) Apply(name string, inserts, deletes [][]int64) error {
	var e wire.Enc
	e.Str(name)
	e.Tuples(inserts)
	e.Tuples(deletes)
	_, err := s.roundTripOp(wire.TApply, e.Bytes(), wire.TOK)
	return err
}

// ApplyAll applies update batches to several relations as one atomic
// server-side write; see repro.Store.ApplyAll.
func (s *Store) ApplyAll(batches map[string][]repro.Delta) error {
	var e wire.Enc
	e.Int(len(batches))
	for name, deltas := range batches {
		var ins, dels [][]int64
		for _, d := range deltas {
			if d.Delete {
				dels = append(dels, d.Tuple)
			} else {
				ins = append(ins, d.Tuple)
			}
		}
		e.Str(name)
		e.Tuples(ins)
		e.Tuples(dels)
	}
	_, err := s.roundTripOp(wire.TApplyAll, e.Bytes(), wire.TOK)
	return err
}

// Schema fetches the server's full schema listing — names and arities, in
// sorted name order — in one round trip. Prefer it over per-name Arity
// calls when describing a whole store.
func (s *Store) Schema(ctx context.Context) ([]repro.RelationInfo, error) {
	body, err := s.roundTrip(ctx, wire.TRelations, nil, wire.TRelationsOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	n := d.Count()
	if d.Err() != nil {
		return nil, d.Err()
	}
	out := make([]repro.RelationInfo, n)
	for i := range out {
		out[i] = repro.RelationInfo{Name: d.Str(), Arity: d.Int()}
	}
	return out, d.Err()
}

// Relations returns the schema as sorted relation names, or nil if the
// server cannot be reached.
func (s *Store) Relations() []string {
	ctx, cancel := s.opCtx()
	defer cancel()
	infos, err := s.Schema(ctx)
	if err != nil {
		return nil
	}
	names := make([]string, len(infos))
	for i, r := range infos {
		names[i] = r.Name
	}
	return names
}

// Arity returns the declared arity of the named relation.
func (s *Store) Arity(name string) (int, error) {
	ctx, cancel := s.opCtx()
	defer cancel()
	infos, err := s.Schema(ctx)
	if err != nil {
		return 0, err
	}
	for _, r := range infos {
		if r.Name == name {
			return r.Arity, nil
		}
	}
	return 0, fmt.Errorf("client: %w: %q", repro.ErrUnknownRelation, name)
}

// Metrics fetches the server's process metrics rendered in the Prometheus
// text exposition format — the wire-level counterpart of the -metrics-addr
// HTTP endpoint (same payload), for clients without HTTP access to the
// server host.
func (s *Store) Metrics(ctx context.Context) (string, error) {
	body, err := s.roundTrip(ctx, wire.TMetrics, nil, wire.TMetricsOK)
	if err != nil {
		return "", err
	}
	d := wire.NewDec(body)
	text := d.Str()
	if d.Err() != nil {
		return "", fmt.Errorf("client: malformed Metrics response: %w", d.Err())
	}
	return text, nil
}

// Trace fetches the spans one completed trace left on the server, merged
// with the spans of any downstream hosts the server fronts (a routed
// backend fans the fetch out) — the stitched tree graphjoin -connect -trace
// renders. A trace the server never saw yields an empty span list.
func (s *Store) Trace(ctx context.Context, id uint64) ([]trace.SpanRecord, error) {
	var e wire.Enc
	e.U64(id)
	e.Int(1)
	body, err := s.roundTrip(ctx, wire.TTrace, e.Bytes(), wire.TTraceOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	traces := wire.DecodeTraces(d)
	if d.Err() != nil {
		return nil, fmt.Errorf("client: malformed Trace response: %w", d.Err())
	}
	var spans []trace.SpanRecord
	for _, t := range traces {
		spans = append(spans, t.Spans...)
	}
	return spans, nil
}

// TraceSpans is Trace under the name the server-side stitching capability
// probes for, letting a Store serve as a downstream host of another server's
// trace fetch.
func (s *Store) TraceSpans(ctx context.Context, id uint64) ([]trace.SpanRecord, error) {
	return s.Trace(ctx, id)
}

// Traces fetches the server's last-n completed traces, oldest first (n <= 0
// fetches the server's whole retention buffer).
func (s *Store) Traces(ctx context.Context, n int) ([]trace.Data, error) {
	var e wire.Enc
	e.U64(0)
	e.Int(n)
	body, err := s.roundTrip(ctx, wire.TTrace, e.Bytes(), wire.TTraceOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	traces := wire.DecodeTraces(d)
	if d.Err() != nil {
		return nil, fmt.Errorf("client: malformed Traces response: %w", d.Err())
	}
	return traces, nil
}

// ParseQuery parses and validates the query against the server's schema; see
// repro.Store.ParseQuery.
func (s *Store) ParseQuery(name, src string) (*repro.Query, error) {
	var e wire.Enc
	e.Str(name)
	e.Str(src)
	body, err := s.roundTripOp(wire.TParse, e.Bytes(), wire.TParseOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	wq := wire.DecodeQuery(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return wq.ToQuery()
}

// Prepare compiles the query server-side and returns a handle to the
// server's prepared statement; see repro.Store.Prepare. Close the handle to
// free the server-side entry (the server also frees everything when the
// connection closes).
func (s *Store) Prepare(q *repro.Query, opts repro.Options) (repro.PreparedQuery, error) {
	var e wire.Enc
	wire.FromQuery(q).Encode(&e)
	wire.EncodeOptions(&e, opts)
	body, err := s.roundTripOp(wire.TPrepare, e.Bytes(), wire.TPrepareOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	handle := d.U64()
	alg := d.Str()
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &Prepared{s: s, handle: handle, q: q, alg: alg}, nil
}

// Count evaluates the query once (a one-shot convenience over Prepare); see
// repro.Store.Count.
func (s *Store) Count(ctx context.Context, q *repro.Query, opts repro.Options) (int64, error) {
	return repro.ExecOnce(ctx, s, q, opts, nil)
}

// Enumerate streams the query's results once (one-shot over Prepare); see
// repro.Store.Enumerate.
func (s *Store) Enumerate(ctx context.Context, q *repro.Query, opts repro.Options, emit func([]int64) bool) error {
	_, err := repro.ExecOnce(ctx, s, q, opts, emit)
	return err
}

// ReadTxn opens a server-side snapshot read-transaction pinned to this
// connection; see repro.Store.ReadTxn. Close it to release the server-side
// lease.
func (s *Store) ReadTxn() (repro.QueryTxn, error) {
	body, err := s.roundTripOp(wire.TBegin, nil, wire.TBeginOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	id := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &Txn{s: s, id: id}, nil
}

// Batch executes many prepared queries server-side against one shared
// snapshot; see repro.Store.Batch. Per-request failures land in the
// individual Results; the returned error reports transport-level failures
// only.
func (s *Store) Batch(ctx context.Context, reqs []repro.BatchRequest) ([]repro.Result, error) {
	results := make([]repro.Result, len(reqs))
	// Handles from another client (or the local implementation) are isolated
	// into their own Results, mirroring the Batch error-isolation contract;
	// the rest ship as one request.
	var slots []int
	for i, r := range reqs {
		if p, ok := r.Prepared.(*Prepared); ok && p.s == s {
			slots = append(slots, i)
		} else {
			results[i] = repro.Result{Err: fmt.Errorf("client: %w", repro.ErrForeignPrepared)}
		}
	}
	var e wire.Enc
	e.Int(len(slots))
	for _, i := range slots {
		p := reqs[i].Prepared.(*Prepared)
		e.U64(p.handle)
		e.Bool(reqs[i].Rows)
	}
	body, err := s.roundTrip(ctx, wire.TBatch, e.Bytes(), wire.TBatchOK)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	n := d.Int()
	if d.Err() != nil || n != len(slots) {
		return nil, fmt.Errorf("client: malformed batch response: %w", ErrProtocol)
	}
	for j := 0; j < n; j++ {
		res := repro.Result{Count: d.I64(), Rows: d.Tuples()}
		code, msg := d.Str(), d.Str()
		if code != "" {
			res.Err = &wire.Error{Code: code, Msg: msg}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		results[slots[j]] = res
	}
	return results, nil
}
