package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/client"
	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/router"
	"repro/server"
)

// env is what a set-up builds a deployment from.
type env struct {
	in  *inputs
	exp *expected
	rec *recorder // nil with tracing off
	dir string    // where a durable store may live
	rng *rand.Rand
	// clients is the number of closed-loop clients the deployment serves.
	clients int
}

// workloadDef is one workload: how it is deployed and how many closed-loop
// clients drive it.
type workloadDef struct {
	name       string
	deployment string
	clients    int
	why        string
	setup      func(*env) (deployment, error)
}

var workloads = []workloadDef{
	{"embedded_joins", "in-process repro.Store, Workers 1", 1,
		"engine rung: the paper's query mix run in process, so lftj, minesweeper and relation do all the work and wire, router and durable none",
		func(e *env) (deployment, error) { return newEmbedded(e) }},
	{"served_point", "server on loopback TCP over an in-memory store", 2,
		"transport rung: ~10 us point queries over TCP, so wire, server, client and the fixed cost of a Prepared execution dominate and engine speed must not show",
		func(e *env) (deployment, error) { return newServed(e) }},
	{"routed_fanout", "router over 3 servers on loopback TCP, replicated stores, hash partitioner", 1,
		"router rung: 3-way fan-out of a count, a 16k-row merged stream and a single-host pinned count; bulk credit-controlled streams, stragglers on 2 cores",
		func(e *env) (deployment, error) { return newRouted(e) }},
	{"durable_churn", "server on loopback TCP over OpenStore(sync group, window 0, checkpoint 512 KiB)", 2,
		"write rung: 64+64-tuple Apply beside read-your-write and overlay reads, so WAL, group commit, overlay and background checkpoints run",
		func(e *env) (deployment, error) { return newDurable(e) }},
}

// execMode is how an operation runs a prepared query.
type execMode int

const (
	modeCount execMode = iota
	modeRows
	modeRowsErr
)

// verify executes p and checks the answer: the count, and for a stream its
// length and the digest of its rows in order.
func verify(ctx context.Context, p repro.PreparedQuery, mode execMode, want answer) error {
	var d rowDigest
	switch mode {
	case modeCount:
		n, err := p.Count(ctx)
		if err != nil {
			return err
		}
		if n != want.count {
			return wrong("count", n, want.count)
		}
		return nil
	case modeRows:
		for row := range p.Rows(ctx) {
			d.add(row)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	case modeRowsErr:
		for row, err := range p.RowsErr(ctx) {
			if err != nil {
				return err
			}
			d.add(row)
		}
	}
	if d.answer() != want {
		return wrong("row stream (count, digest)", d.answer(), want)
	}
	return nil
}

// prepareAll prepares every named query on q.
func prepareAll(q repro.Querier, in *inputs) (map[string]repro.PreparedQuery, error) {
	h := make(map[string]repro.PreparedQuery)
	for _, d := range queryDefs(in) {
		pq, err := d.parse(q)
		if err != nil {
			return nil, err
		}
		if h[d.name], err = q.Prepare(pq, options(d.alg)); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", d.name, err)
		}
	}
	return h, nil
}

// preparePoints prepares the pooled point queries on q.
func preparePoints(q repro.Querier, queries []*repro.Query) ([]repro.PreparedQuery, error) {
	hs := make([]repro.PreparedQuery, len(queries))
	for i, pq := range queries {
		var err error
		if hs[i], err = q.Prepare(pq, options(repro.LFTJ)); err != nil {
			return nil, fmt.Errorf("prepare point %d: %w", i, err)
		}
	}
	return hs, nil
}

func parsePoints(q repro.Querier, in *inputs) ([]*repro.Query, error) {
	qs := make([]*repro.Query, len(in.pointKs))
	for i, k := range in.pointKs {
		var err error
		if qs[i], err = parseNamed(q, "point", fmt.Sprintf(pointText, k)); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// loadedStore returns an in-memory store holding the generated relations.
func loadedStore(in *inputs) (*repro.Store, error) {
	st := repro.NewStore()
	return st, in.load(repro.Local(st))
}

// host is one server on a loopback TCP listener.
type host struct {
	name string
	addr string
	srv  *server.Server
	done chan error
}

// startHost serves st under name. The store is registered as a Querier —
// what the server makes of a Stores entry itself — because a Stores entry
// also registers a polled overlay-depth gauge that keeps the store reachable
// from the process-wide metrics registry after the server is gone, which
// would count one deployment's heap into the next. With a recorder the
// Querier is wrapped, so everything below the server is one store.* span.
func startHost(name string, st *repro.Store, rec *recorder, idx int) (*host, error) {
	cfg := server.Config{Queriers: map[string]repro.Querier{name: traced(repro.Local(st), rec, "store", idx)}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{name: name, addr: ln.Addr().String(), srv: server.New(cfg), done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

func (h *host) dial(ctx context.Context) (*client.Store, error) {
	return client.Dial(ctx, h.addr, client.WithStore(h.name))
}

func (h *host) stop() error {
	h.srv.Close()
	if err := <-h.done; !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	return nil
}

// scrape sums the public metric series of the named stores: the counters the
// per-layer metrics are deltas of.
func scrape(stores ...string) map[string]float64 {
	var sb strings.Builder
	if err := metrics.Default().WritePrometheus(&sb); err != nil {
		return nil
	}
	samples, err := metrics.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		return nil
	}
	out := map[string]float64{
		"router_retries": metrics.SumSamples(samples, "graphjoinrouter_retries_total"),
		"compactions":    float64(relation.OverlayCompactions()),
	}
	for _, st := range stores {
		for key, series := range map[string]string{
			"requests":       "graphjoind_requests_total",
			"credit_stall_s": "graphjoind_rows_credit_stall_seconds_total",
			"fsyncs":         "graphjoind_wal_fsync_seconds_count",
			"fsync_s":        "graphjoind_wal_fsync_seconds_sum",
			"checkpoints":    "graphjoind_checkpoint_seconds_count",
			"checkpoint_s":   "graphjoind_checkpoint_seconds_sum",
		} {
			out[key] += metrics.SumSamples(samples, series, "store", st)
		}
	}
	return out
}

// embedded is the embedded_joins deployment.
type embedded struct {
	st  *repro.Store
	q   repro.Querier
	h   map[string]repro.PreparedQuery
	exp *expected
	rng *rand.Rand
}

// embeddedMix is one embedded_joins operation: one pass over the paper mix,
// in an order the seed draws anew for every operation.
var embeddedMix = []struct {
	query string
	mode  execMode
}{
	{"triangle", modeRows},
	{"clique4", modeCount},
	{"path3", modeCount},
	{"comb2", modeCount},
	{"groupby", modeRowsErr},
	{"pinned_projected", modeRows},
	{"range2hop", modeCount},
}

func newEmbedded(e *env) (*embedded, error) {
	st, err := loadedStore(e.in)
	if err != nil {
		return nil, err
	}
	d := &embedded{st: st, q: traced(repro.Local(st), e.rec, "repro", -1), exp: e.exp, rng: rand.New(rand.NewSource(e.rng.Int63()))}
	d.h, err = prepareAll(d.q, e.in)
	return d, err
}

func (d *embedded) op(ctx context.Context, _ int) error {
	for _, i := range d.rng.Perm(len(embeddedMix)) {
		s := embeddedMix[i]
		if err := verify(ctx, d.h[s.query], s.mode, d.exp.byQuery[s.query]); err != nil {
			return fmt.Errorf("%s: %w", s.query, err)
		}
	}
	return nil
}

func (d *embedded) counters() map[string]float64 { return nil }
func (d *embedded) close() error                 { return nil }

// served is the served_point deployment: one connection per client, the
// point pool prepared once per connection.
type served struct {
	host    *host
	clients []*pointClient
	exp     *expected
}

type pointClient struct {
	conn    *client.Store
	q       repro.Querier
	handles []repro.PreparedQuery
	queries []*repro.Query
	rng     *rand.Rand
}

// Requests one served_point operation sends: Count, Rows, and the one-shot's
// Prepare + Count + ClosePrepared.
const servedRequestsPerOp = 5

func newServed(e *env) (*served, error) {
	st, err := loadedStore(e.in)
	if err != nil {
		return nil, err
	}
	queries, err := parsePoints(repro.Local(st), e.in)
	if err != nil {
		return nil, err
	}
	d := &served{exp: e.exp}
	if d.host, err = startHost("served", st, e.rec, 0); err != nil {
		return nil, err
	}
	for c := 0; c < e.clients; c++ {
		pc := &pointClient{queries: queries, rng: rand.New(rand.NewSource(e.rng.Int63()))}
		if pc.conn, err = d.host.dial(context.Background()); err != nil {
			d.close()
			return nil, err
		}
		pc.q = traced(pc.conn, e.rec, "client", 0)
		d.clients = append(d.clients, pc)
		if pc.handles, err = preparePoints(pc.q, queries); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *served) op(ctx context.Context, c int) error {
	pc := d.clients[c]
	k := pc.rng.Intn(len(pc.handles))
	if err := verify(ctx, pc.handles[k], modeCount, d.exp.point[k]); err != nil {
		return fmt.Errorf("point %d count: %w", k, err)
	}
	if err := verify(ctx, pc.handles[k], modeRows, d.exp.point[k]); err != nil {
		return fmt.Errorf("point %d rows: %w", k, err)
	}
	k = pc.rng.Intn(len(pc.queries))
	n, err := pc.q.Count(ctx, pc.queries[k], options(repro.LFTJ))
	if err != nil {
		return fmt.Errorf("point %d one-shot: %w", k, err)
	}
	if n != d.exp.point[k].count {
		return wrong(fmt.Sprintf("point %d one-shot count", k), n, d.exp.point[k].count)
	}
	return nil
}

func (d *served) counters() map[string]float64 { return scrape(d.host.name) }

func (d *served) close() error {
	for _, pc := range d.clients {
		if pc.conn != nil {
			pc.conn.Close()
		}
	}
	return d.host.stop()
}

// routed is the routed_fanout deployment.
type routed struct {
	hosts []*host
	conns []*client.Store
	rt    *router.Router
	q     repro.Querier
	h     map[string]repro.PreparedQuery
	point []repro.PreparedQuery
	exp   *expected
	rng   *rand.Rand
}

const routedHosts = 3

func newRouted(e *env) (*routed, error) {
	d := &routed{exp: e.exp, rng: rand.New(rand.NewSource(e.rng.Int63()))}
	var queries []*repro.Query
	var legs []repro.Querier
	for i := 0; i < routedHosts; i++ {
		st, err := loadedStore(e.in)
		if err != nil {
			d.close()
			return nil, err
		}
		if queries == nil {
			if queries, err = parsePoints(repro.Local(st), e.in); err != nil {
				return nil, err
			}
		}
		h, err := startHost(fmt.Sprintf("shard%d", i), st, e.rec, i)
		if err != nil {
			d.close()
			return nil, err
		}
		d.hosts = append(d.hosts, h)
		conn, err := h.dial(context.Background())
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, conn)
		legs = append(legs, traced(conn, e.rec, "host", i))
	}
	var err error
	if d.rt, err = router.New(legs, nil, router.Config{}); err != nil {
		d.close()
		return nil, err
	}
	d.q = traced(d.rt, e.rec, "router", -1)
	d.h = make(map[string]repro.PreparedQuery)
	for _, def := range queryDefs(e.in) {
		if def.name != "triangle" && def.name != "range2hop" {
			continue
		}
		pq, err := def.parse(d.q)
		if err == nil {
			d.h[def.name], err = d.q.Prepare(pq, options(def.alg))
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("routed %s: %w", def.name, err)
		}
	}
	if d.point, err = preparePoints(d.q, queries); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *routed) op(ctx context.Context, _ int) error {
	if err := verify(ctx, d.h["triangle"], modeCount, d.exp.byQuery["triangle"]); err != nil {
		return fmt.Errorf("routed triangle: %w", err)
	}
	if err := verify(ctx, d.h["range2hop"], modeRows, d.exp.byQuery["range2hop"]); err != nil {
		return fmt.Errorf("routed range2hop: %w", err)
	}
	k := d.rng.Intn(len(d.point))
	if err := verify(ctx, d.point[k], modeCount, d.exp.point[k]); err != nil {
		return fmt.Errorf("routed point %d: %w", k, err)
	}
	return nil
}

func (d *routed) counters() map[string]float64 {
	names := make([]string, len(d.hosts))
	for i, h := range d.hosts {
		names[i] = h.name
	}
	return scrape(names...)
}

func (d *routed) close() error {
	if d.rt != nil {
		d.rt.Close()
	}
	for _, c := range d.conns {
		c.Close()
	}
	var first error
	for _, h := range d.hosts {
		if err := h.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// churner produces the durable_churn write stream of one owner: a ring of
// vertices beyond the graph's id range, each holding the last batch written
// from it. Writing a slot again deletes that batch and inserts a new one
// drawn from the other half of the vertex range, so no tuple is inserted and
// deleted in one call, and every insert is new and every delete present.
type churner struct {
	rng    *rand.Rand
	verts  []int64
	halves [2][]int64     // seeded permutation of each half of the vertex range
	batch  [][2][][]int64 // per slot, two buffers alternating between rounds
	rounds []int          // per slot, batches written so far
	next   int
}

func newChurner(rng *rand.Rand, nodes, owner int) *churner {
	c := &churner{rng: rand.New(rand.NewSource(rng.Int63())), rounds: make([]int, churnRing)}
	half := nodes / 2
	for h := range c.halves {
		for _, v := range c.rng.Perm(half) {
			c.halves[h] = append(c.halves[h], int64(h*half+v))
		}
	}
	for r := 0; r < churnRing; r++ {
		v := int64(nodes + owner*churnRing + r)
		c.verts = append(c.verts, v)
		var bufs [2][][]int64
		for b := range bufs {
			for i := 0; i < churnSize; i++ {
				bufs[b] = append(bufs[b], []int64{v, 0})
			}
		}
		c.batch = append(c.batch, bufs)
	}
	return c
}

// nextBatch returns the next slot and its batch. The buffers are reused two
// rounds later, when the tuples they held have been deleted again.
func (c *churner) nextBatch() (slot int, ins, dels [][]int64) {
	slot = c.next % churnRing
	c.next++
	round := c.rounds[slot]
	c.rounds[slot]++
	ins = c.batch[slot][round%2]
	pool := c.halves[round%2]
	off := c.rng.Intn(len(pool))
	for i := range ins {
		ins[i][1] = pool[(off+i)%len(pool)]
	}
	if round > 0 {
		dels = c.batch[slot][(round-1)%2]
	}
	return slot, ins, dels
}

// live is the number of tuples the churner's batches hold in the store.
func (c *churner) live() int64 {
	var n int64
	for _, r := range c.rounds {
		if r > 0 {
			n += churnSize
		}
	}
	return n
}

// durableChurn is the durable_churn deployment.
type durableChurn struct {
	dir      string
	st       *repro.Store
	host     *host
	clients  []*churnClient
	churners []*churner // every writer into the store, for the recovery check
	exp      *expected
	rec      *recorder
	base     int64 // edge cardinality before any churn
	depthMax atomic.Int64
	// recovery is how long the re-open in close took.
	recovery time.Duration
}

type churnClient struct {
	*churner
	conn      *client.Store
	q         repro.Querier
	reads     []repro.PreparedQuery // Count of edge(V, ·) per slot
	range2hop repro.PreparedQuery
}

var durableOptions = repro.DurabilityOptions{Sync: "group", GroupWindow: 0, CheckpointBytes: 512 << 10, MetricsName: "durable"}

func newDurable(e *env) (*durableChurn, error) {
	dir, err := os.MkdirTemp(e.dir, "durable-")
	if err != nil {
		return nil, err
	}
	d := &durableChurn{dir: dir, exp: e.exp, rec: e.rec, base: int64(len(e.in.rels["edge"]))}
	if d.st, _, err = repro.OpenStore(dir, durableOptions); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err = e.in.load(repro.Local(d.st)); err == nil {
		d.host, err = startHost("durable", d.st, e.rec, 0)
	}
	if err != nil {
		d.st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	for c := 0; c < e.clients; c++ {
		cc := &churnClient{churner: newChurner(e.rng, e.in.nodes, c)}
		d.clients = append(d.clients, cc)
		d.churners = append(d.churners, cc.churner)
		if cc.conn, err = d.host.dial(context.Background()); err != nil {
			d.close()
			return nil, err
		}
		cc.q = traced(cc.conn, e.rec, "client", 0)
		for _, v := range cc.verts {
			pq, err := parseNamed(cc.q, "churn_read", fmt.Sprintf(churnReadText, v))
			var p repro.PreparedQuery
			if err == nil {
				p, err = cc.q.Prepare(pq, options(repro.LFTJ))
			}
			if err != nil {
				d.close()
				return nil, err
			}
			cc.reads = append(cc.reads, p)
		}
		h, err := prepareAll(cc.q, e.in)
		if err != nil {
			d.close()
			return nil, err
		}
		cc.range2hop = h["range2hop"]
	}
	return d, nil
}

func (d *durableChurn) op(ctx context.Context, c int) error {
	cc := d.clients[c]
	slot, ins, dels := cc.nextBatch()
	if err := apply(ctx, cc.q, "edge", ins, dels); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if d.rec != nil {
		if depth := int64(d.st.OverlayDepth()); depth > d.depthMax.Load() {
			d.depthMax.Store(depth)
		}
	}
	if err := verify(ctx, cc.reads[slot], modeCount, answer{count: churnSize}); err != nil {
		return fmt.Errorf("read-your-write on vertex %d: %w", cc.verts[slot], err)
	}
	if err := verify(ctx, cc.range2hop, modeCount, d.exp.byQuery["range2hop"]); err != nil {
		return fmt.Errorf("range2hop beside writes: %w", err)
	}
	return nil
}

func (d *durableChurn) counters() map[string]float64 {
	m := scrape("durable")
	m["overlay_depth_max"] = float64(d.depthMax.Load())
	m["wal_bytes"] = float64(walBytes(d.dir))
	return m
}

// walBytes is the total size of the store directory's log segments.
func walBytes(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var total int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// waitCheckpointIdle returns once no size-triggered background checkpoint is
// running. Store.Close does not wait for one, and one still running would
// write a snapshot and prune log segments under the re-opened store; no
// public call reports it, so its goroutine is looked for by name.
func waitCheckpointIdle() {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var b bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil || !bytes.Contains(b.Bytes(), []byte("maybeCheckpoint")) {
			return
		}
	}
}

// close stops serving, closes the store, opens it again and requires the
// recovered edge relation to hold the base tuples plus every live batch.
func (d *durableChurn) close() error {
	defer os.RemoveAll(d.dir)
	want := d.base
	for _, ch := range d.churners {
		want += ch.live()
	}
	for _, cc := range d.clients {
		if cc.conn != nil {
			cc.conn.Close()
		}
	}
	err := d.host.stop()
	waitCheckpointIdle()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	st, _, err := repro.OpenStore(d.dir, durableOptions)
	if err != nil {
		return fmt.Errorf("re-open: %w", err)
	}
	d.recovery = time.Since(t0)
	defer st.Close()
	q, err := st.ParseQuery("edges", edgeCardinalityText)
	if err != nil {
		return err
	}
	got, err := st.Count(context.Background(), q, options(repro.LFTJ))
	if err != nil {
		return err
	}
	if got != want {
		return wrong("recovered edge cardinality", got, want)
	}
	return nil
}
