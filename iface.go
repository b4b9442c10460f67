package repro

import (
	"context"
	"iter"
)

// PreparedQuery is the execution surface of a compiled query, shared by the
// in-process *Prepared, the network client's remote handle (package
// repro/client) and the router's fan-out handle (package repro/router).
// Everything Prepare validated — schema, algorithm, GAO — is settled; the
// methods here are pure execution, and Exec runs any of them.
type PreparedQuery interface {
	// Query returns the compiled query.
	Query() *Query
	// Algorithm returns the engine the query was compiled for.
	Algorithm() string
	// Count executes the compiled plan and returns the result cardinality.
	Count(ctx context.Context) (int64, error)
	// Enumerate streams result tuples with bindings in Query().Vars() order;
	// emit returns false to stop early. The tuple slice may be reused between
	// calls — copy it to retain it. Projected and aggregate rows ascend in
	// head order; the rows of a query without a head arrive in the order of
	// the plan's GAO, which a local store prices on its data and a router
	// fixes to the structural order it cuts on (ResolveGAO).
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
	// Close releases resources held for the handle. *Prepared holds none and
	// returns nil; a remote handle frees the server-side prepared-statement
	// entry.
	Close() error
}

// QueryTxn is the execution surface of a snapshot read-transaction, shared by
// the in-process *Txn, the network client's remote transaction and the
// router's distributed one. Executions through it observe the index state
// pinned when the transaction began, no matter how many write batches land
// concurrently. Each implementation checks the handles passed to it: a nil
// handle fails, and one from another store, connection or router fails with
// ErrForeignPrepared.
type QueryTxn interface {
	// Count executes the prepared query against the transaction's snapshot.
	Count(ctx context.Context, p PreparedQuery) (int64, error)
	// Enumerate streams the prepared query's results against the snapshot.
	Enumerate(ctx context.Context, p PreparedQuery, emit func([]int64) bool) error
	// Rows is Enumerate as a streaming iterator with owned tuple copies.
	Rows(ctx context.Context, p PreparedQuery) iter.Seq[[]int64]
	// RowsErr is Rows with the explicit-error protocol.
	RowsErr(ctx context.Context, p PreparedQuery) iter.Seq2[[]int64, error]
	// Close releases the transaction. *Txn needs no release (the snapshot is
	// garbage-collected) and returns nil; a remote transaction frees the
	// server-side lease.
	Close() error
}

// RelationInfo is one entry of a schema listing (Querier.Schema).
type RelationInfo struct {
	Name  string
	Arity int
}

// BatchRequest is one unit of a Querier.Batch: a prepared query to execute,
// optionally collecting its result tuples alongside the count.
type BatchRequest struct {
	// Prepared is the compiled query to execute; it must come from the same
	// Querier the batch runs on (ErrForeignPrepared otherwise).
	Prepared PreparedQuery
	// Rows, when true, collects the result tuples (in output order — the
	// head variables then any aggregate values) into the Result as well as
	// counting them. Leave false for count-only workloads — collection
	// materializes the whole result.
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
// at begin, batch error isolation). A Querier's executions all reduce to
// Exec, and a Batch that runs its requests one by one to RunBatch.
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
	// Close releases the querier. Local holds no resources and returns nil
	// (it never closes the Store); a remote querier closes the connection.
	Close() error
}

// Exec is the one execution primitive every deployment shares: it runs p
// inside t when t is non-nil, and on p directly otherwise. A nil emit counts
// the results; a non-nil emit enumerates them (see PreparedQuery.Enumerate)
// and Exec returns 0.
func Exec(ctx context.Context, t QueryTxn, p PreparedQuery, emit func([]int64) bool) (int64, error) {
	switch {
	case t != nil && emit != nil:
		return 0, t.Enumerate(ctx, p, emit)
	case t != nil:
		return t.Count(ctx, p)
	case emit != nil:
		return 0, p.Enumerate(ctx, emit)
	}
	return p.Count(ctx)
}

// ExplainText renders p's compiled plan. Explain is not on the
// PreparedQuery seam, and it comes in two shapes: a local handle's
// Explain() Explanation, and the Explain(ctx) (string, error) of a remote or
// routed handle, which fetches the text. ExplainText accepts both, and
// returns "" for a handle that has neither.
func ExplainText(ctx context.Context, p PreparedQuery) (string, error) {
	switch h := p.(type) {
	case interface{ Explain() Explanation }:
		return h.Explain().String(), nil
	case interface {
		Explain(context.Context) (string, error)
	}:
		return h.Explain(ctx)
	}
	return "", nil
}

// ExecOnce is the one-shot execution behind every Querier's Count and
// Enumerate: it prepares q on qr, runs the handle once through Exec, and
// closes it.
func ExecOnce(ctx context.Context, qr Querier, q *Query, opts Options, emit func([]int64) bool) (int64, error) {
	p, err := qr.Prepare(q, opts)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	return Exec(ctx, nil, p, emit)
}

// Local wraps an in-process Store as a Querier — the counterpart of
// client.Dial for the embedded deployment. Every method is the Store's own
// except three: Prepare and ReadTxn return the ordinary *Prepared and *Txn
// values as their interface types, and Close is a no-op, so a Querier never
// closes a durable store's log.
func Local(s *Store) Querier { return localQuerier{s} }

type localQuerier struct{ *Store }

func (l localQuerier) Prepare(q *Query, opts Options) (PreparedQuery, error) {
	p, err := l.Store.Prepare(q, opts)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (l localQuerier) ReadTxn() (QueryTxn, error) { return l.Store.ReadTxn(), nil }

func (l localQuerier) Close() error { return nil }
