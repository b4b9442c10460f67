package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stream is the server side of one flow-controlled Rows stream. The client
// proposes an initial credit (in chunks) with its Rows request and tops it up
// with Credit frames as it consumes; the producer takes one credit per chunk
// and blocks when the client has stopped granting — so a slow consumer
// bounds the server's buffering at credit × chunk rows, per stream. A client
// Cancel frame (or a dropped connection) wakes a blocked producer and stops
// the query: the engine's emit callback returns false and execution ends
// mid-join, not after materializing the remainder.
type stream struct {
	mu        sync.Mutex
	credit    int
	cancelled bool
	// notify wakes a producer blocked in acquire; buffered so add/cancel
	// never block the connection's read loop.
	notify chan struct{}
}

func newStream(credit int) *stream {
	return &stream{credit: credit, notify: make(chan struct{}, 1)}
}

func (st *stream) signal() {
	select {
	case st.notify <- struct{}{}:
	default:
	}
}

// add grants n more chunks of credit.
func (st *stream) add(n int) {
	st.mu.Lock()
	st.credit += n
	st.mu.Unlock()
	st.signal()
}

// cancelClient marks the stream stopped by the client.
func (st *stream) cancelClient() {
	st.mu.Lock()
	st.cancelled = true
	st.mu.Unlock()
	st.signal()
}

// acquire takes one chunk of credit, blocking until the client grants more,
// cancels, or the request context ends. It returns how long the producer was
// blocked waiting (zero on the uncontended fast path), feeding the
// credit-stall metric without timing the unblocked case.
func (st *stream) acquire(ctx context.Context) (time.Duration, error) {
	var blockedAt time.Time
	for {
		st.mu.Lock()
		if st.cancelled {
			st.mu.Unlock()
			return stalledFor(blockedAt), errStreamCancelled
		}
		if st.credit > 0 {
			st.credit--
			st.mu.Unlock()
			return stalledFor(blockedAt), nil
		}
		st.mu.Unlock()
		if blockedAt.IsZero() {
			blockedAt = time.Now()
		}
		select {
		case <-st.notify:
		case <-ctx.Done():
			return stalledFor(blockedAt), ctx.Err()
		}
	}
}

// stalledFor converts the blocked-at mark into a stall duration.
func stalledFor(blockedAt time.Time) time.Duration {
	if blockedAt.IsZero() {
		return 0
	}
	return time.Since(blockedAt)
}

// handleRows serves one streaming Rows request: execute the prepared query
// (optionally inside a transaction snapshot), batch result tuples into
// chunks, and ship each chunk under flow control. The stream always
// terminates with a RowsEnd frame carrying the delivered-row count and an
// error code ("" for a complete stream, "cancelled" for a client stop).
func (c *conn) handleRows(ctx context.Context, reqID uint64, body []byte) error {
	d := wire.NewDec(body)
	handle := d.U64()
	txnID := d.U64()
	chunkRows := d.Int()
	credit := d.Int()
	if d.Err() != nil {
		return decodeErr(d)
	}
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows
	} else if chunkRows > maxChunkRows {
		chunkRows = maxChunkRows
	}
	if credit <= 0 {
		credit = defaultCredit
	} else if credit > maxCredit {
		credit = maxCredit
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
	// The streaming span wraps execution and delivery; credit stalls (the
	// producer blocked waiting for the client to grant more chunks) are
	// summed into it, separating "the engine was slow" from "the consumer
	// was slow" in one glance at the trace.
	ctx, span := trace.Start(ctx, "rows.stream")
	var stallTotal time.Duration

	st := newStream(credit)
	c.mu.Lock()
	c.streams[reqID] = st
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.streams, reqID)
		c.mu.Unlock()
	}()

	// Each row is encoded as it is emitted into one encoder for the stream; a
	// full chunk goes out as its row count and the rows: Enc.Tuples' bytes.
	var (
		rows, chunk wire.Enc
		pending     int // rows encoded in rows, not yet sent
		delivered   int64
		stopErr     error // credit acquisition / frame write failure
	)
	flush := func() error {
		if pending == 0 {
			return nil
		}
		stall, err := st.acquire(ctx)
		c.tenant.metrics.stalled(stall)
		stallTotal += stall
		if err != nil {
			return err
		}
		chunk.Reset()
		chunk.Int(pending)
		chunk.Raw(rows.Bytes())
		if err := c.send(wire.TRowChunk, reqID, chunk.Bytes()); err != nil {
			return err
		}
		delivered += int64(pending)
		rows.Reset()
		pending = 0
		return nil
	}
	emit := func(tuple []int64) bool {
		rows.Tuple(tuple)
		if pending++; pending >= chunkRows {
			if err := flush(); err != nil {
				stopErr = err
				return false
			}
		}
		return true
	}
	_, runErr := repro.Exec(ctx, t, p, emit)
	if runErr == nil && stopErr == nil {
		stopErr = flush() // final partial chunk
	}
	if span != nil {
		span.SetInt("delivered", delivered)
		span.SetInt("credit_stall_ns", int64(stallTotal))
		span.End()
	}

	code, msg := "", ""
	switch {
	case runErr != nil:
		code, msg = wire.ErrorCode(runErr), runErr.Error()
	case errors.Is(stopErr, errStreamCancelled):
		code, msg = wire.CodeCancelled, "stream stopped by client"
	case stopErr != nil:
		code, msg = wire.ErrorCode(stopErr), stopErr.Error()
	}
	var e wire.Enc
	e.I64(delivered)
	e.Str(code)
	e.Str(msg)
	return c.send(wire.TRowsEnd, reqID, e.Bytes())
}
