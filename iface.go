package repro

import (
	"context"
	"fmt"
	"iter"
)

// PreparedQuery is the execution surface of a compiled query, shared by the
// in-process *Prepared handle and the network client's remote handle
// (package repro/client). Everything Prepare validated — schema, algorithm,
// GAO — is settled; the methods here are pure execution.
type PreparedQuery interface {
	// Query returns the compiled query.
	Query() *Query
	// Algorithm returns the engine the query was compiled for.
	Algorithm() string
	// Count executes the compiled plan and returns the result cardinality.
	Count(ctx context.Context) (int64, error)
	// Enumerate streams result tuples with bindings in Query().Vars() order;
	// emit returns false to stop early. The tuple slice may be reused between
	// calls — copy it to retain it.
	Enumerate(ctx context.Context, emit func([]int64) bool) error
	// Rows is Enumerate as a streaming iterator; each yielded slice is a
	// fresh copy owned by the consumer. Breaking out of the range stops
	// execution early — on a remote handle, the server stops producing.
	Rows(ctx context.Context) iter.Seq[[]int64]
	// RowsErr is Rows with an explicit error: (tuple, nil) per result and a
	// final (nil, err) pair if execution fails mid-stream.
	RowsErr(ctx context.Context) iter.Seq2[[]int64, error]
	// Stats snapshots the unified execution counters accumulated by the
	// handle. On a remote handle the counters live server-side; the snapshot
	// is fetched best-effort and is zero if the connection has failed.
	Stats() ExecStats
	// Close releases resources held for the handle. The local implementation
	// holds none and returns nil; the remote implementation frees the
	// server-side prepared-statement entry.
	Close() error
}

// QueryTxn is the execution surface of a snapshot read-transaction, shared by
// the in-process *Txn and the network client's remote transaction. Executions
// through it observe the index state pinned when the transaction began, no
// matter how many write batches land concurrently.
type QueryTxn interface {
	// Count executes the prepared query against the transaction's snapshot.
	Count(ctx context.Context, p PreparedQuery) (int64, error)
	// Enumerate streams the prepared query's results against the snapshot.
	Enumerate(ctx context.Context, p PreparedQuery, emit func([]int64) bool) error
	// Rows is Enumerate as a streaming iterator with owned tuple copies.
	Rows(ctx context.Context, p PreparedQuery) iter.Seq[[]int64]
	// RowsErr is Rows with the explicit-error protocol.
	RowsErr(ctx context.Context, p PreparedQuery) iter.Seq2[[]int64, error]
	// Close releases the transaction. The local implementation needs no
	// release (the snapshot is garbage-collected) and returns nil; the remote
	// implementation frees the server-side lease.
	Close() error
}

// RelationInfo is one entry of a schema listing (Querier.Schema).
type RelationInfo struct {
	Name  string
	Arity int
}

// BatchRequest is one unit of a Querier.Batch: a prepared query to execute,
// optionally collecting its result tuples alongside the count. It is the
// implementation-neutral counterpart of Request.
type BatchRequest struct {
	// Prepared is the compiled query to execute; it must come from the same
	// Querier the batch runs on (ErrForeignPrepared otherwise).
	Prepared PreparedQuery
	// Rows, when true, collects the result tuples into the Result as well as
	// counting them.
	Rows bool
}

// Querier is the query-service surface shared by the in-process Store and the
// network client (package repro/client): define a schema, load and update
// relations, parse and prepare queries, and execute them directly, in
// snapshot read-transactions, or as concurrent batches. Code written against
// Querier flips between embedded and client/server deployment with one
// constructor change:
//
//	q := repro.Local(store)                     // in-process
//	q, err := client.Dial(ctx, "db-host:7474")  // remote
//
// Method semantics match Store exactly; see the Store, Prepared, and Txn
// documentation for the contracts (handles follow writes, transactions pin
// at begin, batch error isolation).
type Querier interface {
	// DefineRelation declares a named relation of the given arity.
	DefineRelation(name string, arity int) error
	// Load replaces the named relation's contents in one bulk registration.
	Load(name string, tuples [][]int64) error
	// Apply applies an incremental update batch to the named relation.
	Apply(name string, inserts, deletes [][]int64) error
	// ApplyAll applies update batches to several relations as one atomic
	// write.
	ApplyAll(batches map[string][]Delta) error
	// Relations returns the schema as sorted relation names. On a remote
	// querier the listing is fetched from the server and is nil if the
	// connection has failed.
	Relations() []string
	// Arity returns the declared arity of the named relation.
	Arity(name string) (int, error)
	// Schema returns the whole schema — sorted names with arities — in one
	// call; on a remote querier that is one round trip, where a
	// Relations+Arity loop would pay one per relation.
	Schema(ctx context.Context) ([]RelationInfo, error)
	// ParseQuery parses the Datalog-style syntax and validates it against
	// the schema.
	ParseQuery(name, src string) (*Query, error)
	// Prepare compiles the query for the configured engine and returns an
	// execution handle.
	Prepare(q *Query, opts Options) (PreparedQuery, error)
	// Count evaluates the query once (a one-shot convenience over Prepare).
	Count(ctx context.Context, q *Query, opts Options) (int64, error)
	// Enumerate streams the query's results once (one-shot over Prepare).
	Enumerate(ctx context.Context, q *Query, opts Options, emit func([]int64) bool) error
	// ReadTxn pins the current index snapshot and returns a transaction
	// whose executions all observe it.
	ReadTxn() (QueryTxn, error)
	// Batch executes many prepared queries concurrently against one shared
	// snapshot, with per-request error isolation. The returned error reports
	// batch-level failures only (e.g. a lost connection); per-request
	// failures land in the individual Results.
	Batch(ctx context.Context, reqs []BatchRequest) ([]Result, error)
	// Close releases the querier. The local implementation holds no
	// resources and returns nil; the remote implementation closes the
	// connection.
	Close() error
}

// Close implements PreparedQuery. A local prepared handle holds no resources
// beyond its plan (shared via the store's plan cache), so Close is a no-op;
// it exists so code written against PreparedQuery can release remote handles
// uniformly.
func (p *Prepared) Close() error { return nil }

// Local wraps an in-process Store as a Querier — the counterpart of
// client.Dial for the embedded deployment. The wrapper is a thin adapter:
// every call delegates to the Store method of the same name, and the
// interface handles it returns are the ordinary *Prepared and *Txn values.
func Local(s *Store) Querier { return localQuerier{s} }

type localQuerier struct{ s *Store }

func (l localQuerier) DefineRelation(name string, arity int) error {
	return l.s.DefineRelation(name, arity)
}
func (l localQuerier) Load(name string, tuples [][]int64) error { return l.s.Load(name, tuples) }
func (l localQuerier) Apply(name string, inserts, deletes [][]int64) error {
	return l.s.Apply(name, inserts, deletes)
}
func (l localQuerier) ApplyAll(batches map[string][]Delta) error { return l.s.ApplyAll(batches) }
func (l localQuerier) Relations() []string                       { return l.s.Relations() }
func (l localQuerier) Arity(name string) (int, error)            { return l.s.Arity(name) }
func (l localQuerier) Schema(ctx context.Context) ([]RelationInfo, error) {
	names := l.s.Relations()
	out := make([]RelationInfo, 0, len(names))
	for _, name := range names {
		arity, err := l.s.Arity(name)
		if err != nil {
			return nil, err
		}
		out = append(out, RelationInfo{Name: name, Arity: arity})
	}
	return out, nil
}
func (l localQuerier) ParseQuery(name, src string) (*Query, error) {
	return l.s.ParseQuery(name, src)
}
func (l localQuerier) Prepare(q *Query, opts Options) (PreparedQuery, error) {
	return l.s.Prepare(q, opts)
}
func (l localQuerier) Count(ctx context.Context, q *Query, opts Options) (int64, error) {
	return l.s.Count(ctx, q, opts)
}
func (l localQuerier) Enumerate(ctx context.Context, q *Query, opts Options, emit func([]int64) bool) error {
	return l.s.Enumerate(ctx, q, opts, emit)
}
func (l localQuerier) ReadTxn() (QueryTxn, error) { return localTxn{l.s.ReadTxn()}, nil }
func (l localQuerier) Batch(ctx context.Context, reqs []BatchRequest) ([]Result, error) {
	results := make([]Result, len(reqs))
	local := make([]Request, 0, len(reqs))
	// Map interface requests onto the concrete batch, isolating foreign
	// handles into their own Results exactly as Batch isolates execution
	// failures.
	slot := make([]int, 0, len(reqs))
	for i, r := range reqs {
		p, ok := r.Prepared.(*Prepared)
		if !ok {
			results[i] = Result{Err: fmt.Errorf("repro: %w", ErrForeignPrepared)}
			continue
		}
		local = append(local, Request{Prepared: p, Rows: r.Rows})
		slot = append(slot, i)
	}
	for j, res := range l.s.Batch(ctx, local) {
		results[slot[j]] = res
	}
	return results, nil
}
func (l localQuerier) Close() error { return nil }

// localTxn adapts *Txn (whose methods take the concrete *Prepared) to
// QueryTxn (whose methods take the shared interface).
type localTxn struct{ t *Txn }

// unwrap asserts the interface handle back to the local concrete type; a
// handle from another implementation cannot execute against this store.
func unwrap(p PreparedQuery) (*Prepared, error) {
	lp, ok := p.(*Prepared)
	if !ok {
		return nil, fmt.Errorf("repro: %w", ErrForeignPrepared)
	}
	return lp, nil
}

func (l localTxn) Count(ctx context.Context, p PreparedQuery) (int64, error) {
	lp, err := unwrap(p)
	if err != nil {
		return 0, err
	}
	return l.t.Count(ctx, lp)
}

func (l localTxn) Enumerate(ctx context.Context, p PreparedQuery, emit func([]int64) bool) error {
	lp, err := unwrap(p)
	if err != nil {
		return err
	}
	return l.t.Enumerate(ctx, lp, emit)
}

func (l localTxn) Rows(ctx context.Context, p PreparedQuery) iter.Seq[[]int64] {
	return OwnedRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return l.Enumerate(ctx, p, emit)
	})
}

func (l localTxn) RowsErr(ctx context.Context, p PreparedQuery) iter.Seq2[[]int64, error] {
	return OwnedRowsErr(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return l.Enumerate(ctx, p, emit)
	})
}

func (l localTxn) Close() error { return nil }
