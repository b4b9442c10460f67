package repro

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/core"
)

// ErrForeignPrepared reports a Prepared handle used against a store (or
// transaction) other than the one it was compiled on.
var ErrForeignPrepared = errors.New("prepared handle belongs to a different store")

var _ QueryTxn = (*Txn)(nil)

// Txn is a snapshot read-transaction: a transaction pins at begin.
// Executions through it observe the database generation pinned when ReadTxn
// was called, no matter how many Apply/ApplyAll batches land concurrently.
// Every execution outside a transaction already reads one generation, pinned
// at its start, so it never sees a write half-applied; a Txn extends that
// pin across executions. Several Count and Rows calls inside one transaction
// therefore agree with each other, which is what multi-query read
// consistency under a live write stream needs.
//
// The begin-time pin covers every index bound when the transaction began —
// i.e. the indexes of every Prepared handle that existed by then, which is
// the supported lifecycle (prepare first, then open transactions). A handle
// prepared only after the transaction began binds fresh indexes the
// transaction could not have pinned; those are pinned at their first use
// inside the transaction instead (self-consistent from then on, but that
// first pin may observe writes that landed after ReadTxn). A Txn is safe for
// concurrent use and needs no explicit close (Close exists for QueryTxn and
// returns nil); dropping it releases the pinned snapshot to the garbage
// collector.
type Txn struct {
	s     *Store
	lease *core.Lease
}

// ReadTxn pins the store's current index snapshot and returns a transaction
// whose executions all observe it. Prepare the handles you will execute
// before opening the transaction — see the Txn pinning contract.
func (s *Store) ReadTxn() *Txn {
	return &Txn{s: s, lease: s.db.NewLease()}
}

// pin checks that p is a live handle of this transaction's store and
// returns it with the transaction's generation for its plan.
func (t *Txn) pin(p PreparedQuery) (*Prepared, *core.Generation, error) {
	lp, ok := p.(*Prepared)
	if p == nil || ok && lp == nil {
		return nil, nil, fmt.Errorf("repro: nil Prepared handle")
	}
	if !ok || lp.s != t.s {
		return nil, nil, fmt.Errorf("repro: %w", ErrForeignPrepared)
	}
	return lp, t.lease.Pin(lp.plan), nil
}

// Count executes the prepared query against the transaction's snapshot and
// returns the number of result tuples (for aggregate queries, the number of
// groups).
func (t *Txn) Count(ctx context.Context, p PreparedQuery) (int64, error) {
	lp, gen, err := t.pin(p)
	if err != nil {
		return 0, err
	}
	return lp.exec(ctx, gen, nil)
}

// Enumerate executes the prepared query against the transaction's snapshot,
// streaming result tuples in output order (q.Out() variables then aggregate
// values; q.Vars() order for plain queries); emit returns false to stop
// early. The tuple slice is reused between calls — copy it to retain it.
func (t *Txn) Enumerate(ctx context.Context, p PreparedQuery, emit func([]int64) bool) error {
	lp, gen, err := t.pin(p)
	if err != nil {
		return err
	}
	_, err = lp.exec(ctx, gen, emit)
	return err
}

// Rows executes the prepared query against the transaction's snapshot as a
// streaming iterator; each yielded slice is owned by the consumer. Like
// Prepared.Rows it discards mid-stream errors — use RowsErr to distinguish a
// complete stream from a truncated one.
func (t *Txn) Rows(ctx context.Context, p PreparedQuery) iter.Seq[[]int64] {
	return OwnedRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return t.Enumerate(ctx, p, emit)
	})
}

// RowsErr is Rows with an explicit error: it yields (tuple, nil) for every
// result and, if execution fails (including a handle the transaction cannot
// serve), a final (nil, err) pair.
func (t *Txn) RowsErr(ctx context.Context, p PreparedQuery) iter.Seq2[[]int64, error] {
	return OwnedRowsErr(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return t.Enumerate(ctx, p, emit)
	})
}

// Close implements QueryTxn. The pinned snapshot needs no release, so Close
// returns nil.
func (t *Txn) Close() error { return nil }
