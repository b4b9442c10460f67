// Package router is the distributed query fabric: a coordinator that fans
// prepared queries out over multiple graphjoind hosts and merges their
// answers, behind the same repro.Querier seam the in-process store
// (repro.Local) and the single-host client (client.Dial) implement — so code
// written against Querier flips between embedded, client/server, and
// clustered deployment with one constructor change:
//
//	q := repro.Local(store)                      // in-process
//	q, err := client.Dial(ctx, "db-host:7474")   // one remote host
//	q, err := router.Open(ctx, hosts, cfg)       // a cluster
//
// # Replicated storage, partitioned execution
//
// Writes (DefineRelation, Load, Apply, ApplyAll) broadcast to every host, so
// each host holds the full database. Queries partition the other axis: the
// execution's output space is cut on the leading attribute of the query's
// global attribute order by the rule the §4.10 parallel jobs use in-process
// — host i of n runs part i of n (repro.Shard), a contiguous range of the
// attribute's values holding an equal share of its level-0 index keys — and
// the router combines the answers: counts by summation, row streams by
// concatenating the parts in host order, global aggregates by folding
// per-host partials. Replication is what makes the per-host execution
// self-contained: a multi-atom join binds non-leading atoms at arbitrary
// values, so owner-only storage would need a data exchange per join level;
// replicating the (small, paper-scale) database trades disk for zero
// cross-host data movement at query time. Each host cuts its part from its
// own copy, under a snapshot that pins the same write prefix on every host
// (see Consistency), so the parts are disjoint, cover the domain, and
// concatenate into a stream byte-identical to a single store's.
//
// # Consistency
//
// Fan-out reads open a snapshot lease on every host before executing (an
// internal distributed read-transaction), and lease openings are serialized
// against broadcast writes by the router's lock — every host's snapshot
// therefore reflects the same prefix of the router's write sequence, and a
// merged result never mixes write generations. ReadTxn exposes the same
// mechanism to callers, pinning all hosts for the transaction's life.
// Broadcast writes are not atomic across hosts: a mid-broadcast failure
// (reported as a *HostError) can leave the failed host behind until an
// operator restores it. Such a host cuts its part from different contents;
// a row stream notices when a part starts inside the previous one and fails
// with ErrDiverged instead of repeating rows, but a count cannot tell.
//
// # Failure
//
// Every cross-host failure is a *HostError naming the host; errors.Is and
// errors.As see through it to the typed sentinels (client.ErrOverloaded,
// repro.ErrUnknownRelation, ...). Idempotent unary reads retry with backoff
// on admission rejections; streams do not retry — a host lost mid-stream
// fails the concatenated stream with a typed error instead of silently
// truncating it.
package router

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/client"
)

// ErrClosed reports an operation on a closed router.
var ErrClosed = errors.New("router: closed")

// HostError is a failure scoped to one cluster host. Unwrap exposes the
// underlying cause, so errors.Is sees through to the typed sentinels.
type HostError struct {
	// Host is the failing host's label (its address, or the label given to
	// New).
	Host string
	// Index is the host's position in the cluster topology.
	Index int
	// Err is the underlying failure.
	Err error
}

func (e *HostError) Error() string {
	return fmt.Sprintf("router: host %d (%s): %v", e.Index, e.Host, e.Err)
}

func (e *HostError) Unwrap() error { return e.Err }

// HostSpec names one cluster host for Open.
type HostSpec struct {
	// Addr is the host's graphjoind address.
	Addr string
	// Store selects a named store on a multi-tenant host ("" means the
	// server default).
	Store string
}

// Config configures a Router.
type Config struct {
	// RequestTimeout bounds each per-host unary request (counts, lease
	// opens, schema operations). Zero means no bound. Streams are governed
	// by the caller's context instead — a dead host still fails them
	// promptly through the transport.
	RequestTimeout time.Duration
	// MaxRetries is how many times an idempotent unary read is retried
	// after a host admission rejection (client.ErrOverloaded), backing off
	// retryBackoff and doubling per attempt. Zero disables retries.
	MaxRetries int
	// DialAttempts is how many times Open dials each host, backing off
	// dialBackoff and doubling per attempt (client.WithDialRetry) — a
	// cluster's hosts rarely boot atomically.
	DialAttempts int
}

// The first backoff of a read retry and of a dial retry; each doubles per
// attempt.
const (
	retryBackoff = 25 * time.Millisecond
	dialBackoff  = 100 * time.Millisecond
)

// Router coordinates a cluster of hosts behind the repro.Querier seam.
// Create one with Open (dialing graphjoind hosts) or New (over any Querier
// values, e.g. in-process stores in tests). Safe for concurrent use.
type Router struct {
	hosts []repro.Querier
	names []string

	reqTimeout time.Duration
	maxRetries int
	ownsHosts  bool

	met *routerMetrics

	// mu serializes broadcast writes (Lock) against snapshot-lease openings
	// (RLock): a fan-out read's per-host leases are opened with no write in
	// flight, so every host pins the same write prefix.
	mu     sync.RWMutex
	closed bool
}

var _ repro.Querier = (*Router)(nil)

// Open dials every host and returns a router over the cluster. On any dial
// failure the already-opened connections are closed and a *HostError
// identifies the unreachable host. Closing the router closes the
// connections.
func Open(ctx context.Context, hosts []HostSpec, cfg Config) (*Router, error) {
	conns := make([]repro.Querier, 0, len(hosts))
	names := make([]string, 0, len(hosts))
	fail := func(i int, err error) (*Router, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, &HostError{Host: hosts[i].Addr, Index: i, Err: err}
	}
	for i, h := range hosts {
		opts := []client.Option{client.WithStore(h.Store)}
		if cfg.RequestTimeout > 0 {
			opts = append(opts, client.WithRequestTimeout(cfg.RequestTimeout))
		}
		if cfg.DialAttempts > 1 {
			opts = append(opts, client.WithDialRetry(cfg.DialAttempts, dialBackoff))
		}
		c, err := client.Dial(ctx, h.Addr, opts...)
		if err != nil {
			return fail(i, err)
		}
		conns = append(conns, c)
		name := h.Addr
		if h.Store != "" {
			name += "/" + h.Store
		}
		names = append(names, name)
	}
	r, err := New(conns, names, cfg)
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	r.ownsHosts = true
	return r, nil
}

// New returns a router over already-constructed queriers — remote clients,
// in-process stores wrapped with repro.Local, or a mix. labels names each
// host for errors and metrics (nil derives "host-0", "host-1", ...). The
// router does not close the queriers unless it dialed them itself (Open).
func New(hosts []repro.Querier, labels []string, cfg Config) (*Router, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("router: at least one host required")
	}
	if labels == nil {
		labels = make([]string, len(hosts))
		for i := range labels {
			labels[i] = fmt.Sprintf("host-%d", i)
		}
	}
	if len(labels) != len(hosts) {
		return nil, fmt.Errorf("router: %d hosts but %d labels", len(hosts), len(labels))
	}
	return &Router{
		hosts:      hosts,
		names:      append([]string(nil), labels...),
		reqTimeout: cfg.RequestTimeout,
		maxRetries: cfg.MaxRetries,
		met:        newRouterMetrics(labels),
	}, nil
}

// Hosts returns the cluster's host labels in topology order.
func (r *Router) Hosts() []string { return append([]string(nil), r.names...) }

// hostErr wraps a failure with its host's identity.
func (r *Router) hostErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return &HostError{Host: r.names[i], Index: i, Err: err}
}

// Close closes the router; connections it dialed itself (Open) are closed
// too. Safe to call repeatedly.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	if r.ownsHosts {
		for i, h := range r.hosts {
			if err := h.Close(); err != nil && first == nil {
				first = r.hostErr(i, err)
			}
		}
	}
	return first
}

// broadcast runs one write on every host in parallel under the write lock,
// so no snapshot lease can open against a half-applied broadcast. The first
// per-host failure is returned as a *HostError; a mid-broadcast failure can
// leave hosts diverged (see the package comment on write atomicity).
func (r *Router) broadcast(f func(h repro.Querier) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	errs := make([]error, len(r.hosts))
	var wg sync.WaitGroup
	for i, h := range r.hosts {
		wg.Add(1)
		go func(i int, h repro.Querier) {
			defer wg.Done()
			errs[i] = f(h)
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return r.hostErr(i, err)
		}
	}
	return nil
}

// DefineRelation declares the relation on every host.
func (r *Router) DefineRelation(name string, arity int) error {
	return r.broadcast(func(h repro.Querier) error { return h.DefineRelation(name, arity) })
}

// Load replaces the relation's contents on every host.
func (r *Router) Load(name string, tuples [][]int64) error {
	return r.broadcast(func(h repro.Querier) error { return h.Load(name, tuples) })
}

// Apply applies the update batch on every host.
func (r *Router) Apply(name string, inserts, deletes [][]int64) error {
	return r.broadcast(func(h repro.Querier) error { return h.Apply(name, inserts, deletes) })
}

// ApplyAll applies the multi-relation batch on every host.
func (r *Router) ApplyAll(batches map[string][]repro.Delta) error {
	return r.broadcast(func(h repro.Querier) error { return h.ApplyAll(batches) })
}

// Relations returns the schema listing. The schema is replicated, so any
// host answers identically; a host with a failed connection (nil listing)
// is skipped so metadata stays available while a shard is down.
func (r *Router) Relations() []string {
	for _, h := range r.hosts {
		if names := h.Relations(); names != nil {
			return names
		}
	}
	return nil
}

// Arity returns the relation's arity, falling back across hosts so a dead
// shard does not take the metadata surface down with it.
func (r *Router) Arity(name string) (int, error) {
	var err error
	for _, h := range r.hosts {
		var n int
		if n, err = h.Arity(name); err == nil {
			return n, nil
		}
		if errors.Is(err, repro.ErrUnknownRelation) {
			return 0, err
		}
	}
	return 0, err
}

// Schema returns the schema listing, falling back across hosts.
func (r *Router) Schema(ctx context.Context) ([]repro.RelationInfo, error) {
	var err error
	for _, h := range r.hosts {
		var infos []repro.RelationInfo
		if infos, err = h.Schema(ctx); err == nil {
			return infos, nil
		}
	}
	return nil, err
}

// ParseQuery parses and schema-checks the query, falling back across hosts:
// a schema error from a live host is authoritative (the schema is
// replicated), but a transport failure moves on to the next host.
func (r *Router) ParseQuery(name, src string) (*repro.Query, error) {
	var err error
	for i, h := range r.hosts {
		var q *repro.Query
		if q, err = h.ParseQuery(name, src); err == nil {
			return q, nil
		}
		if parseAuthoritative(err) {
			return nil, err
		}
		err = r.hostErr(i, err)
	}
	return nil, err
}

// parseAuthoritative reports whether a ParseQuery failure is a verdict about
// the query itself (syntax, schema) rather than about the host that answered.
func parseAuthoritative(err error) bool {
	var syn *repro.SyntaxError
	return errors.As(err, &syn) ||
		errors.Is(err, repro.ErrUnknownRelation) ||
		errors.Is(err, repro.ErrArityMismatch)
}

// Prepare compiles the query on the cluster and returns a routed handle.
//
// The routing is decided here, once, before any host is asked: the options
// and the query's order are checked locally (an unknown algorithm is the
// caller's error, not a host's), and then the query takes one of three
// routes:
//   - its leading GAO attribute is pinned to a constant by an equality
//     predicate: the whole query goes to host k mod n — every replica holds
//     every row, so any host can answer it, and the constant spreads pinned
//     queries over the cluster;
//   - rows do not sort first on the leading attribute (see leadCol): the
//     whole query goes to host 0, since parts of that attribute would not
//     concatenate into the single-store order;
//   - otherwise host i prepares Shard{Part: i, Of: n}, and executions fan out
//     and concatenate the parts in host order.
//
// Options.Shard is owned by the router; a caller-set one is rejected with
// repro.ErrUnsupportedQuery.
func (r *Router) Prepare(q *repro.Query, opts repro.Options) (repro.PreparedQuery, error) {
	if opts.Shard != nil {
		return nil, fmt.Errorf("router: %w: Options.Shard is set by the router itself", repro.ErrUnsupportedQuery)
	}
	gao, err := repro.ResolveGAO(q, opts)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	n := len(r.hosts)
	if n == 1 {
		return r.prepareSingle(q, opts, 0, "single-host cluster")
	}
	// The planner leads the GAO with any variable an equality pins to a
	// constant — written a = K, or in-atom edge(K, b), which the parser
	// desugars into the same shape.
	if k, pinned := q.Pinned(gao[0]); pinned {
		return r.prepareSingle(q, opts, int(uint64(k)%uint64(n)),
			fmt.Sprintf("pinned: leading attribute %s = %d", gao[0], k))
	}
	// The parts must combine into the single-store answer: row streams
	// concatenate, and a global aggregate's partials fold in any order.
	globalAgg := len(q.Out()) == 0 && len(q.Aggs) > 0
	col := leadCol(q, gao[0])
	if col < 0 && !(globalAgg && q.PartitionedBy(gao[0])) {
		return r.prepareSingle(q, opts, 0,
			fmt.Sprintf("rows do not sort first on leading attribute %s; unsharded", gao[0]))
	}
	hosts := make([]repro.PreparedQuery, n)
	hostIdx := make([]int, n)
	for i := range r.hosts {
		o := opts
		o.Shard = &repro.Shard{Part: uint64(i), Of: uint64(n)}
		p, err := r.hosts[i].Prepare(q, o)
		if err != nil {
			for j := 0; j < i; j++ {
				hosts[j].Close()
			}
			return nil, r.hostErr(i, err)
		}
		hosts[i] = p
		hostIdx[i] = i
	}
	return &Prepared{
		r: r, q: q, alg: hosts[0].Algorithm(),
		hosts: hosts, hostIdx: hostIdx,
		leadCol: col, globalAgg: globalAgg, aggs: q.Aggs,
		routeNote: fmt.Sprintf("fan-out over %d hosts, cut on leading attribute %s", n, gao[0]),
	}, nil
}

// leadCol returns the output column of the leading GAO attribute v when
// every host's rows sort first on it, so that parts of v's values
// concatenate in order: any column of full-binding rows (they are
// enumerated in GAO order), only the first column of projected and
// aggregate rows (they ascend in head order). It returns -1 otherwise.
func leadCol(q *repro.Query, v string) int {
	cols := q.Emitted()
	if q.PrefixOrdered() {
		cols = cols[:min(1, len(cols))]
	}
	return slices.Index(cols, v)
}

// prepareSingle prepares the whole, unsharded query on one host. note records
// why the query routed single-host, for Explain.
func (r *Router) prepareSingle(q *repro.Query, opts repro.Options, owner int, note string) (repro.PreparedQuery, error) {
	p, err := r.hosts[owner].Prepare(q, opts)
	if err != nil {
		return nil, r.hostErr(owner, err)
	}
	return &Prepared{
		r: r, q: q, alg: p.Algorithm(),
		hosts: []repro.PreparedQuery{p}, hostIdx: []int{owner}, single: true,
		routeNote: note,
	}, nil
}

// Count evaluates the query once across the cluster (a one-shot convenience
// over Prepare).
func (r *Router) Count(ctx context.Context, q *repro.Query, opts repro.Options) (int64, error) {
	return repro.ExecOnce(ctx, r, q, opts, nil)
}

// Enumerate streams the query's results once across the cluster (one-shot
// over Prepare).
func (r *Router) Enumerate(ctx context.Context, q *repro.Query, opts repro.Options, emit func([]int64) bool) error {
	_, err := repro.ExecOnce(ctx, r, q, opts, emit)
	return err
}

// ReadTxn opens a snapshot lease on every host and returns a distributed
// read-transaction pinning them all for its life. The openings run with no
// broadcast write in flight, so the per-host snapshots agree on the write
// prefix they reflect; executions through the transaction therefore observe
// one consistent cluster state no matter how many writes land concurrently.
// Close the transaction to release the leases.
func (r *Router) ReadTxn() (repro.QueryTxn, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, ErrClosed
	}
	n := len(r.hosts)
	txns := make([]repro.QueryTxn, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, h := range r.hosts {
		wg.Add(1)
		go func(i int, h repro.Querier) {
			defer wg.Done()
			txns[i], errs[i] = h.ReadTxn()
		}(i, h)
	}
	wg.Wait()
	r.mu.RUnlock()
	for i, err := range errs {
		if err != nil {
			for _, t := range txns {
				if t != nil {
					t.Close()
				}
			}
			return nil, r.hostErr(i, err)
		}
	}
	return &Txn{r: r, txns: txns}, nil
}

// Batch executes many prepared queries against one cluster-consistent
// snapshot, with per-request error isolation: every request runs inside one
// internal distributed read-transaction, so the batch observes a single
// write generation across all hosts, exactly as a store-local Batch observes
// one snapshot. The requests run through repro.RunBatch, so at most
// GOMAXPROCS fan-outs are in flight at once.
func (r *Router) Batch(ctx context.Context, reqs []repro.BatchRequest) ([]repro.Result, error) {
	t, err := r.ReadTxn()
	if err != nil {
		return nil, err
	}
	defer t.Close()
	return repro.RunBatch(ctx, t, reqs), nil
}

// Txn is a distributed snapshot read-transaction: one lease per host, all
// opened against the same write prefix, all pinned until Close. It satisfies
// repro.QueryTxn; handles passed to it must come from the same router.
type Txn struct {
	r    *Router
	txns []repro.QueryTxn

	mu     sync.Mutex
	closed bool
}

var _ repro.QueryTxn = (*Txn)(nil)

// host returns host i's transaction, or nil when t is nil so the execution
// runs outside any transaction.
func (t *Txn) host(i int) repro.QueryTxn {
	if t == nil {
		return nil
	}
	return t.txns[i]
}

// unwrap asserts the shared handle back to this router's routed type.
func (t *Txn) unwrap(p repro.PreparedQuery) (*Prepared, error) {
	rp, ok := p.(*Prepared)
	if !ok || rp.r != t.r {
		return nil, fmt.Errorf("router: %w", repro.ErrForeignPrepared)
	}
	return rp, nil
}

// Count executes the routed query against the transaction's cluster
// snapshot.
func (t *Txn) Count(ctx context.Context, p repro.PreparedQuery) (int64, error) {
	rp, err := t.unwrap(p)
	if err != nil {
		return 0, err
	}
	return rp.count(ctx, t)
}

// Enumerate streams the routed query's merged results against the
// transaction's cluster snapshot.
func (t *Txn) Enumerate(ctx context.Context, p repro.PreparedQuery, emit func([]int64) bool) error {
	rp, err := t.unwrap(p)
	if err != nil {
		return err
	}
	return rp.enumerate(ctx, t, emit)
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

// Close releases every host's lease. Safe to call repeatedly.
func (t *Txn) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	var first error
	for i, tx := range t.txns {
		if err := tx.Close(); err != nil && first == nil {
			first = t.r.hostErr(i, err)
		}
	}
	return first
}
