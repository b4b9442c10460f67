package client

import (
	"context"
	"fmt"
	"iter"
	"time"

	"repro"
	"repro/internal/wire"
)

// drainTimeout bounds how long a cancelled stream waits for the server's
// end-of-stream acknowledgement before declaring the connection wedged. A
// live server answers in the time of one engine context-check interval;
// this covers scheduling jitter with a wide margin.
const drainTimeout = 30 * time.Second

// Prepared is a handle to a server-side prepared statement: the query was
// compiled once on the server (schema check, GAO resolution, index binding)
// and every Count/Enumerate/Rows call here is pure remote execution. It
// mirrors repro.Prepared and satisfies repro.PreparedQuery.
//
// Like its local counterpart it is safe for concurrent use. Close frees the
// server-side entry; the server also frees everything when the connection
// closes.
type Prepared struct {
	s      *Store
	handle uint64
	q      *repro.Query
	alg    string
}

// Query returns the compiled query.
func (p *Prepared) Query() *repro.Query { return p.q }

// Algorithm returns the engine the query was compiled for (resolved
// server-side; an empty Options.Algorithm reports the default).
func (p *Prepared) Algorithm() string { return p.alg }

// Close frees the server-side prepared-statement entry.
func (p *Prepared) Close() error {
	var e wire.Enc
	e.U64(p.handle)
	_, err := p.s.roundTripOp(wire.TClosePrepared, e.Bytes(), wire.TOK)
	return err
}

// Count executes the compiled plan server-side and returns the result
// cardinality.
func (p *Prepared) Count(ctx context.Context) (int64, error) {
	return p.s.count(ctx, p.handle, 0)
}

// Enumerate streams result tuples from the server with bindings in
// Query().Vars() order; emit returns false to stop early, which cancels the
// server-side execution mid-join.
func (p *Prepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	return p.s.enumerate(ctx, p.handle, 0, emit)
}

// Rows is Enumerate as a streaming iterator; each yielded slice is owned by
// the consumer. Breaking out of the range stops the server-side execution.
// Like repro.Prepared.Rows it discards mid-stream errors — use RowsErr to
// distinguish a complete stream from a truncated one.
func (p *Prepared) Rows(ctx context.Context) iter.Seq[[]int64] {
	return repro.OwnedRows(ctx, p.Enumerate)
}

// RowsErr is Rows with an explicit error: (tuple, nil) per result and a
// final (nil, err) pair if execution fails mid-stream.
func (p *Prepared) RowsErr(ctx context.Context) iter.Seq2[[]int64, error] {
	return repro.OwnedRowsErr(ctx, p.Enumerate)
}

// Stats snapshots the unified execution counters accumulated by the
// server-side handle — including runs other connections never see, since the
// handle is private to this connection. The fetch is best-effort: a zero
// snapshot is returned if the connection has failed (use StatsErr to
// distinguish).
func (p *Prepared) Stats() repro.ExecStats {
	ctx, cancel := p.s.opCtx()
	defer cancel()
	st, err := p.StatsErr(ctx)
	if err != nil {
		return repro.ExecStats{}
	}
	return st
}

// StatsErr fetches the server-side counter snapshot, reporting transport
// failures.
func (p *Prepared) StatsErr(ctx context.Context) (repro.ExecStats, error) {
	var e wire.Enc
	e.U64(p.handle)
	body, err := p.s.roundTrip(ctx, wire.TStats, e.Bytes(), wire.TStatsOK)
	if err != nil {
		return repro.ExecStats{}, err
	}
	d := wire.NewDec(body)
	st := wire.DecodeStats(d)
	return st, d.Err()
}

// Explain renders the server-side compiled plan (the repro.Explanation
// string form: engine, GAO, per-atom indexes, AGM bound).
func (p *Prepared) Explain(ctx context.Context) (string, error) {
	var e wire.Enc
	e.U64(p.handle)
	body, err := p.s.roundTrip(ctx, wire.TExplain, e.Bytes(), wire.TExplainOK)
	if err != nil {
		return "", err
	}
	d := wire.NewDec(body)
	s := d.Str()
	return s, d.Err()
}

// Txn is a server-side snapshot read-transaction: executions through it
// observe the index state pinned when ReadTxn was called (a core.Lease held
// by the server for this connection), no matter how many write batches land
// concurrently. It mirrors repro.Txn and satisfies repro.QueryTxn.
type Txn struct {
	s  *Store
	id uint64
}

// unwrap asserts the shared handle back to this client's concrete type; a
// handle prepared elsewhere cannot execute on this connection's snapshot.
func (t *Txn) unwrap(p repro.PreparedQuery) (*Prepared, error) {
	cp, ok := p.(*Prepared)
	if !ok || cp.s != t.s {
		return nil, fmt.Errorf("client: %w", repro.ErrForeignPrepared)
	}
	return cp, nil
}

// Count executes the prepared query against the transaction's snapshot.
func (t *Txn) Count(ctx context.Context, p repro.PreparedQuery) (int64, error) {
	cp, err := t.unwrap(p)
	if err != nil {
		return 0, err
	}
	return t.s.count(ctx, cp.handle, t.id)
}

// Enumerate streams the prepared query's results against the transaction's
// snapshot; emit returns false to stop early.
func (t *Txn) Enumerate(ctx context.Context, p repro.PreparedQuery, emit func([]int64) bool) error {
	cp, err := t.unwrap(p)
	if err != nil {
		return err
	}
	return t.s.enumerate(ctx, cp.handle, t.id, emit)
}

// Rows is Enumerate as a streaming iterator with owned tuple copies.
func (t *Txn) Rows(ctx context.Context, p repro.PreparedQuery) iter.Seq[[]int64] {
	return repro.OwnedRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return t.Enumerate(ctx, p, emit)
	})
}

// RowsErr is Rows with the explicit-error protocol.
func (t *Txn) RowsErr(ctx context.Context, p repro.PreparedQuery) iter.Seq2[[]int64, error] {
	return repro.OwnedRowsErr(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return t.Enumerate(ctx, p, emit)
	})
}

// Close releases the server-side transaction (and its pinned snapshot).
func (t *Txn) Close() error {
	var e wire.Enc
	e.U64(t.id)
	_, err := t.s.roundTripOp(wire.TEnd, e.Bytes(), wire.TOK)
	return err
}

// count performs one Count request (txnID 0 executes outside a transaction).
func (s *Store) count(ctx context.Context, handle, txnID uint64) (int64, error) {
	var e wire.Enc
	e.U64(handle)
	e.U64(txnID)
	body, err := s.roundTrip(ctx, wire.TCount, e.Bytes(), wire.TCountOK)
	if err != nil {
		return 0, err
	}
	d := wire.NewDec(body)
	n := d.I64()
	return n, d.Err()
}

// enumerate performs one streaming Rows request with credit-based flow
// control: the server may have at most `credit` chunks in flight; the client
// grants one more chunk of credit per chunk consumed. Early termination
// (emit returning false) and context cancellation both send a Cancel frame,
// which stops the server-side execution mid-join, and then drain to the
// stream's terminating frame so the server-side run has fully ended before
// this returns.
func (s *Store) enumerate(ctx context.Context, handle, txnID uint64, emit func([]int64) bool) error {
	chunkRows := s.cfg.chunkRows
	if chunkRows < 0 {
		chunkRows = 0 // 0 selects the server default; never varint-wrap
	}
	credit := s.cfg.credit
	if credit <= 0 {
		credit = 8
	}
	// The mailbox holds the full credit window plus the terminating frame,
	// so the shared read loop never blocks on this stream.
	id, c, err := s.register(credit + 1)
	if err != nil {
		return err
	}
	defer s.deregister(id)
	var e wire.Enc
	e.U64(handle)
	e.U64(txnID)
	e.Int(chunkRows)
	e.Int(credit)
	if err := s.write(wire.TRows, id, traceBody(ctx, e.Bytes())); err != nil {
		return err
	}

	stopped := false // consumer stopped; drain without granting credit
	// A stopped stream still drains to its terminating frame, but a wedged
	// server must not block the caller forever: the wedge timer arms when
	// the stop is sent (a nil channel never fires before that).
	var wedgeT *time.Timer
	var wedgeC <-chan time.Time
	defer func() {
		if wedgeT != nil {
			wedgeT.Stop()
		}
	}()
	cancel := func() {
		if !stopped {
			stopped = true
			s.sendCancel(id)
			wedgeT = time.NewTimer(drainTimeout)
			wedgeC = wedgeT.C
		}
	}
	var one wire.Enc
	one.Int(1)
	grant := one.Bytes()
	// Each chunk is decoded whole into two buffers reused across the
	// stream, and emit borrows its rows from them.
	var vals []int64
	var ends []int
	for {
		select {
		case f := <-c.ch:
			switch f.typ {
			case wire.TErr:
				return wire.DecodeErr(f.body)
			case wire.TRowChunk:
				if stopped {
					continue // draining
				}
				d := wire.NewDec(f.body)
				vals, ends = d.TuplesFlat(vals, ends)
				if d.Err() != nil {
					err := fmt.Errorf("client: malformed row chunk: %w", ErrProtocol)
					s.fail(err)
					return err
				}
				start := 0
				for _, end := range ends {
					if !emit(vals[start:end:end]) {
						cancel()
						break
					}
					start = end
				}
				if !stopped {
					if err := s.write(wire.TCredit, id, grant); err != nil {
						return err
					}
				}
			case wire.TRowsEnd:
				d := wire.NewDec(f.body)
				d.I64() // delivered count; the consumer counted for itself
				code := d.Str()
				msg := d.Str()
				if d.Err() != nil {
					return d.Err()
				}
				if stopped || code == "" {
					// A complete stream, or the tail of one we stopped — the
					// server acknowledged the stop, so its execution is done.
					return nil
				}
				return &wire.Error{Code: code, Msg: msg}
			default:
				err := fmt.Errorf("client: unexpected frame 0x%02x in row stream: %w", f.typ, ErrProtocol)
				s.fail(err)
				return err
			}
		case <-ctx.Done():
			cancel()
			// Drain so the server-side run has ended before returning; the
			// cancel frame wakes both a credit-blocked producer and the
			// engine's context checks, so a live server answers promptly. A
			// dead or wedged one must not outlive the caller's cancelled
			// context, so the drain itself is bounded — on timeout the
			// stream state is indeterminate and the connection is failed.
			deadline := time.NewTimer(drainTimeout)
			defer deadline.Stop()
			for {
				select {
				case f := <-c.ch:
					if f.typ == wire.TRowsEnd || f.typ == wire.TErr {
						return ctx.Err()
					}
				case <-s.readDone:
					return ctx.Err()
				case <-deadline.C:
					s.fail(fmt.Errorf("client: server did not acknowledge a cancelled stream within %v: %w", drainTimeout, ErrProtocol))
					return ctx.Err()
				}
			}
		case <-wedgeC:
			err := fmt.Errorf("client: server did not acknowledge a stopped stream within %v: %w", drainTimeout, ErrProtocol)
			s.fail(err)
			return err
		case <-s.readDone:
			return s.transportErr()
		}
	}
}
