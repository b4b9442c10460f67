package router_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/router"
	"repro/server"
)

// wallCase is one corpus entry: the query text and, where the entry pins
// one, a user-supplied attribute order.
type wallCase struct {
	src string
	gao []string
}

// wallCorpus spans the query language surface the router must merge
// correctly: full joins, projection, reordered heads, in-atom constants,
// comparison predicates, grouped and global aggregates, empty results, the
// single-shard fast path, projections buffered per key group, and user
// orders that do not lead with the head.
var wallCorpus = []wallCase{
	{src: "edge(a, b), edge(b, c)"},
	{src: "out(a) :- edge(a, b), edge(b, c)"},
	{src: "out(c, a) :- edge(a, b), edge(b, c)"},
	{src: "edge(3, b), edge(b, c)"},
	{src: "edge(a, b), a < 50, b >= 20"},
	{src: "edge(a, b), edge(b, c), a != c"},
	{src: "edge(a, b), edge(b, c), a = 7"},
	{src: "deg(a, count(b)) :- edge(a, b)"},
	{src: "stats(a, sum(c), min(c), max(c)) :- edge(a, b), edge(b, c)"},
	{src: "total(count(a)) :- edge(a, b), a >= 50"},
	{src: "total(sum(b), min(b), max(b)) :- edge(a, b)"},
	{src: "total(count(a)) :- edge(a, b), a >= 1000"},
	{src: "hot(b, count(c)) :- edge(2, b), edge(b, c)"},
	{src: "agg(a, count(c)) :- edge(a, b), edge(b, c), a < 40"},
	{src: "hop3(a, d) :- edge(a, b), edge(b, c), edge(c, d)"},
	{src: "out(a, c) :- edge(a, b), edge(b, c), edge(c, d)"},
	{src: "edge(a, 3), edge(7, b)"},
	{src: "both(count(a), count(c)) :- edge(a, b), edge(b, c)"},
	{src: "out(b) :- edge(a, b), a = 3"},
	{src: "out(c, a) :- edge(a, b), edge(b, c)", gao: []string{"a", "b", "c"}},
	{src: "out(a, c) :- edge(a, b), edge(b, c)", gao: []string{"b", "a", "c"}},
	{src: "deg2(a, count(c)) :- edge(a, b), edge(b, c)", gao: []string{"c", "b", "a"}},
}

// wallEdges is the shared deterministic edge set (keys in [0, 100)).
func wallEdges(m, nodes int64) [][]int64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(nodes))
	}
	seen := make(map[[2]int64]bool)
	var edges [][]int64
	for int64(len(edges)) < m {
		a, b := next(), next()
		if a == b || seen[[2]int64{a, b}] {
			continue
		}
		seen[[2]int64{a, b}] = true
		edges = append(edges, []int64{a, b})
	}
	return edges
}

func edgeStore(t *testing.T, edges [][]int64) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	if err := st.DefineRelation("edge", 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("edge", edges); err != nil {
		t.Fatal(err)
	}
	return st
}

// cluster builds an oracle store plus a router over n identical replicas.
func cluster(t *testing.T, n int) (*repro.Store, *router.Router) {
	t.Helper()
	edges := wallEdges(500, 100)
	oracle := edgeStore(t, edges)
	hosts := make([]repro.Querier, n)
	for i := range hosts {
		hosts[i] = repro.Local(edgeStore(t, edges))
	}
	r, err := router.New(hosts, nil, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return oracle, r
}

// routedOrder returns opts with the attribute order a router runs q under.
// Rows of a query without a head come in the order of the plan's GAO: a
// single store prices its orders on the data, a router runs the structural
// order it cuts on (repro.ResolveGAO), so the oracle streams under that one.
func routedOrder(t *testing.T, q *repro.Query, opts repro.Options) repro.Options {
	t.Helper()
	if q.Headed() || opts.GAO != nil {
		return opts
	}
	gao, err := repro.ResolveGAO(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.GAO = gao
	return opts
}

func collectRows(ctx context.Context, enumerate func(context.Context, func([]int64) bool) error) ([][]int64, error) {
	var rows [][]int64
	err := enumerate(ctx, func(row []int64) bool {
		rows = append(rows, append([]int64(nil), row...))
		return true
	})
	return rows, err
}

// TestRouterDifferentialWall is the acceptance differential: a routed
// cluster must produce byte-identical results to a single store across the
// corpus × both trie-driven engines × {2, 3} hosts — same counts, same rows,
// same order.
func TestRouterDifferentialWall(t *testing.T) {
	for _, n := range []int{2, 3} {
		oracle, r := cluster(t, n)
		for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
			t.Run(fmt.Sprintf("shards=%d/%s", n, alg), func(t *testing.T) {
				wallDifferential(t, oracle, r, alg)
			})
		}
	}
}

// wallDifferential runs the wall corpus on one engine through the router
// and against the oracle store.
func wallDifferential(t *testing.T, oracle *repro.Store, r *router.Router, alg repro.Algorithm) {
	ctx := context.Background()
	for _, c := range wallCorpus {
		src := c.src
		q, err := oracle.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		opts := repro.Options{Algorithm: alg, Workers: 1, GAO: c.gao}
		wantN, err := oracle.Count(ctx, q, opts)
		if err != nil {
			t.Fatalf("%s: oracle count: %v", src, err)
		}
		gotN, err := r.Count(ctx, q, opts)
		if err != nil {
			t.Fatalf("%s: routed count: %v", src, err)
		}
		if gotN != wantN {
			t.Errorf("%s: routed count %d, oracle %d", src, gotN, wantN)
		}
		want, err := collectRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
			return oracle.Enumerate(ctx, q, routedOrder(t, q, opts), emit)
		})
		if err != nil {
			t.Fatalf("%s: oracle rows: %v", src, err)
		}
		got, err := collectRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
			return r.Enumerate(ctx, q, opts, emit)
		})
		if err != nil {
			t.Fatalf("%s: routed rows: %v", src, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: routed %d rows, oracle %d", src, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%s: row %d: routed %v, oracle %v", src, i, got[i], want[i])
			}
			// The order contract: projected and aggregate rows ascend in
			// head order under any GAO.
			if q.PrefixOrdered() && i > 0 && slices.Compare(want[i-1], want[i]) >= 0 {
				t.Fatalf("%s: oracle rows %d, %d out of order: %v, %v", src, i-1, i, want[i-1], want[i])
			}
		}
	}
}

// TestRouterChurnInvariant drives atomic cross-shard moves through the
// router while concurrent readers count. Every Apply deletes one edge and
// inserts it under a key 61 places further on in the same batch, mostly in
// another part, so the total edge count is invariant at every write
// generation — any torn fan-out (two hosts read, or cut their parts, at
// different generations) shows up as a wrong count.
func TestRouterChurnInvariant(t *testing.T) {
	ctx := context.Background()
	const total = 300
	tuples := make([][]int64, total)
	keys := make([]int64, total)
	for i := range tuples {
		keys[i] = int64(i % 100)
		tuples[i] = []int64{keys[i], int64(1000 + i)}
	}
	mk := func() *repro.Store {
		st := repro.NewStore()
		if err := st.DefineRelation("edge", 2); err != nil {
			t.Fatal(err)
		}
		if err := st.Load("edge", tuples); err != nil {
			t.Fatal(err)
		}
		return st
	}
	hosts := []repro.Querier{repro.Local(mk()), repro.Local(mk())}
	r, err := router.New(hosts, nil, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q, err := r.ParseQuery("all", "edge(a, b)")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: atomic cross-boundary moves. The second column is unique per
	// tuple, so inserts never collide and the count stays exactly total.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for iter := 0; iter < 400; iter++ {
			i := iter % total
			old := keys[i]
			next := (old + 61) % 100
			err := r.Apply("edge", [][]int64{{next, int64(1000 + i)}}, [][]int64{{old, int64(1000 + i)}})
			if err != nil {
				t.Errorf("churn apply: %v", err)
				return
			}
			keys[i] = next
		}
	}()

	// Readers: the routed count must equal total at every generation.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := r.Count(ctx, q, repro.Options{Workers: 1})
				if err != nil {
					t.Errorf("routed count under churn: %v", err)
					return
				}
				if n != total {
					t.Errorf("torn fan-out: routed count %d, want %d", n, total)
					return
				}
			}
		}()
	}

	// Snapshot reader: a distributed ReadTxn must pin one generation — two
	// counts through the same lease agree exactly. Handles are prepared
	// before the transaction opens, per the Txn pinning contract.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, err := r.Prepare(q, repro.Options{Workers: 1})
		if err != nil {
			t.Errorf("prepare under churn: %v", err)
			return
		}
		defer p.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			txn, err := r.ReadTxn()
			if err != nil {
				t.Errorf("ReadTxn under churn: %v", err)
				return
			}
			a, err1 := txn.Count(ctx, p)
			b, err2 := txn.Count(ctx, p)
			txn.Close()
			if err1 != nil || err2 != nil {
				t.Errorf("txn counts under churn: %v / %v", err1, err2)
				return
			}
			if a != b || a != total {
				t.Errorf("lease not pinned: counts %d then %d, want stable %d", a, b, total)
				return
			}
		}
	}()

	wg.Wait()
}

// TestRouterTxnPinsSnapshot checks the distributed lease against broadcast
// writes landing after it opened: the transaction keeps answering from the
// pinned generation while direct reads see the new rows.
func TestRouterTxnPinsSnapshot(t *testing.T) {
	ctx := context.Background()
	edges := wallEdges(200, 100)
	hosts := []repro.Querier{repro.Local(edgeStore(t, edges)), repro.Local(edgeStore(t, edges)), repro.Local(edgeStore(t, edges))}
	r, err := router.New(hosts, nil, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q, err := r.ParseQuery("all", "edge(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	txn, err := r.ReadTxn()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Close()
	before, err := txn.Count(ctx, p)
	if err != nil {
		t.Fatal(err)
	}

	if err := r.Apply("edge", [][]int64{{500, 501}, {502, 503}}, nil); err != nil {
		t.Fatal(err)
	}

	pinned, err := txn.Count(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if pinned != before {
		t.Fatalf("lease leaked writes: pinned count %d, was %d", pinned, before)
	}
	rows, err := collectRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return txn.Enumerate(ctx, p, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != before {
		t.Fatalf("pinned enumeration %d rows, want %d", len(rows), before)
	}
	fresh, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != before+2 {
		t.Fatalf("direct count %d after apply, want %d", fresh, before+2)
	}
}

// TestRouterBatch checks batch fan-out: results match the oracle, and a
// handle prepared elsewhere fails its own request without poisoning the
// batch.
func TestRouterBatch(t *testing.T) {
	ctx := context.Background()
	oracle, r := cluster(t, 3)

	q1, _ := oracle.ParseQuery("tri", "edge(a, b), edge(b, c)")
	q2, _ := oracle.ParseQuery("deg", "deg(a, count(b)) :- edge(a, b)")
	p1, err := r.Prepare(q1, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := r.Prepare(q2, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	foreign, err := oracle.Prepare(q1, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	res, err := r.Batch(ctx, []repro.BatchRequest{
		{Prepared: p1, Rows: true},
		{Prepared: p2, Rows: true},
		{Prepared: foreign},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(res))
	}
	for i, q := range []*repro.Query{q1, q2} {
		if res[i].Err != nil {
			t.Fatalf("batch request %d: %v", i, res[i].Err)
		}
		wantN, err := oracle.Count(ctx, q, repro.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Count != wantN {
			t.Errorf("batch request %d: count %d, oracle %d", i, res[i].Count, wantN)
		}
		want, err := collectRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
			return oracle.Enumerate(ctx, q, routedOrder(t, q, repro.Options{Workers: 1}), emit)
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res[i].Rows) != fmt.Sprint(want) {
			t.Errorf("batch request %d: rows diverge from oracle", i)
		}
	}
	if !errors.Is(res[2].Err, repro.ErrForeignPrepared) {
		t.Errorf("foreign handle error = %v, want ErrForeignPrepared", res[2].Err)
	}
}

// TestQuerierContract holds the three deployments — Local, a client dialled
// to a loopback server, and a router over three Local hosts — to one
// contract: a failed Prepare returns a nil interface; a Batch fails only the
// slots of a nil and a foreign handle (the latter with ErrForeignPrepared)
// and answers the rest as the handle would alone; and a transaction rejects
// a foreign handle with ErrForeignPrepared.
func TestQuerierContract(t *testing.T) {
	ctx := context.Background()
	edges := wallEdges(300, 100)
	dialled, err := client.Dial(ctx, serveStore(t, edgeStore(t, edges)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialled.Close() })
	hosts := make([]repro.Querier, 3)
	for i := range hosts {
		hosts[i] = repro.Local(edgeStore(t, edges))
	}
	routed, err := router.New(hosts, nil, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { routed.Close() })

	other := repro.Local(edgeStore(t, edges))
	oq, err := other.ParseQuery("tri", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Prepare(oq, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range []struct {
		name string
		q    repro.Querier
	}{
		{"local", repro.Local(edgeStore(t, edges))},
		{"client", dialled},
		{"router", routed},
	} {
		t.Run(d.name, func(t *testing.T) {
			q, err := d.q.ParseQuery("tri", "edge(a, b), edge(b, c)")
			if err != nil {
				t.Fatal(err)
			}
			if p, err := d.q.Prepare(q, repro.Options{Algorithm: "nope"}); err == nil || p != nil {
				t.Errorf("failed Prepare = (%v, %v), want a nil interface and an error", p, err)
			}
			own, err := d.q.Prepare(q, repro.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer own.Close()
			wantN, err := own.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var wantRows [][]int64
			for row := range own.Rows(ctx) {
				wantRows = append(wantRows, row)
			}

			res, err := d.q.Batch(ctx, []repro.BatchRequest{
				{Prepared: own},
				{Prepared: nil},
				{Prepared: foreign},
				{Prepared: own, Rows: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 {
				t.Fatalf("batch returned %d results, want 4", len(res))
			}
			if res[0].Err != nil || res[0].Count != wantN {
				t.Errorf("slot 0 = (%d, %v), want (%d, nil)", res[0].Count, res[0].Err, wantN)
			}
			if res[1].Err == nil {
				t.Error("slot 1: a nil handle should fail its slot")
			}
			if !errors.Is(res[2].Err, repro.ErrForeignPrepared) {
				t.Errorf("slot 2 error = %v, want ErrForeignPrepared", res[2].Err)
			}
			if res[3].Err != nil || res[3].Count != int64(len(wantRows)) {
				t.Errorf("slot 3 = (%d, %v), want (%d, nil)", res[3].Count, res[3].Err, len(wantRows))
			}
			if !slices.EqualFunc(res[3].Rows, wantRows, slices.Equal) {
				t.Error("slot 3 rows differ from Rows()")
			}

			txn, err := d.q.ReadTxn()
			if err != nil {
				t.Fatal(err)
			}
			defer txn.Close()
			if _, err := txn.Count(ctx, foreign); !errors.Is(err, repro.ErrForeignPrepared) {
				t.Errorf("txn Count of a foreign handle = %v, want ErrForeignPrepared", err)
			}
		})
	}
}

// errHostDown is the sentinel a crashing replica reports mid-stream.
var errHostDown = errors.New("simulated host crash")

// flakyQuerier wraps a healthy replica and makes every transaction
// enumeration die after a few rows, modelling a host crashing mid-stream.
type flakyQuerier struct {
	repro.Querier
	failAfter int
}

func (f *flakyQuerier) ReadTxn() (repro.QueryTxn, error) {
	txn, err := f.Querier.ReadTxn()
	if err != nil {
		return nil, err
	}
	return &flakyTxn{QueryTxn: txn, failAfter: f.failAfter}, nil
}

type flakyTxn struct {
	repro.QueryTxn
	failAfter int
}

func (t *flakyTxn) Enumerate(ctx context.Context, p repro.PreparedQuery, emit func([]int64) bool) error {
	n := 0
	dead := false
	err := t.QueryTxn.Enumerate(ctx, p, func(row []int64) bool {
		if n >= t.failAfter {
			dead = true
			return false
		}
		n++
		return emit(row)
	})
	if err != nil {
		return err
	}
	if dead {
		return errHostDown
	}
	return nil
}

// TestRouterHostFailureMidStream pins the failure contract: a host dying
// mid-enumeration surfaces promptly as a typed *HostError naming the host,
// the merged stream ends (no hang), and the rows emitted before the failure
// are a correct order-preserving prefix.
func TestRouterHostFailureMidStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	edges := wallEdges(500, 100)
	healthy := repro.Local(edgeStore(t, edges))
	flaky := &flakyQuerier{Querier: repro.Local(edgeStore(t, edges)), failAfter: 3}
	r, err := router.New([]repro.Querier{healthy, flaky}, []string{"good", "bad"}, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q, err := r.ParseQuery("tri", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var streamErr error
	var got [][]int64
	for row, err := range p.RowsErr(ctx) {
		if err != nil {
			streamErr = err
			break
		}
		got = append(got, row)
	}
	var he *router.HostError
	if !errors.As(streamErr, &he) {
		t.Fatalf("mid-stream failure surfaced as %v, want *HostError", streamErr)
	}
	if he.Host != "bad" {
		t.Errorf("failure attributed to host %q, want \"bad\"", he.Host)
	}
	if !errors.Is(streamErr, errHostDown) {
		t.Errorf("HostError does not wrap the host's own error: %v", streamErr)
	}
	// The prefix that did arrive must be ordered on the merge attribute.
	for i := 1; i < len(got); i++ {
		if got[i][0] < got[i-1][0] {
			t.Fatalf("pre-failure prefix out of order at row %d: %v after %v", i, got[i], got[i-1])
		}
	}

	// A plain Enumerate reports the same typed failure.
	err = p.Enumerate(ctx, func([]int64) bool { return true })
	if !errors.As(err, &he) || !errors.Is(err, errHostDown) {
		t.Fatalf("Enumerate failure = %v, want *HostError wrapping host crash", err)
	}
}

// TestRouterHostKilledMidStreamWire repeats the mid-stream kill over the
// real wire protocol: two graphjoind servers, a router dialled to both, and
// one server hard-closed while the merged stream drains. The router must
// return a typed *HostError promptly instead of hanging on the dead host.
func TestRouterHostKilledMidStreamWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	edges := wallEdges(600, 100)
	var addrs []string
	var servers []*server.Server
	for i := 0; i < 2; i++ {
		srv := server.NewSingle(edgeStore(t, edges))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
	}

	r, err := router.Open(ctx, []router.HostSpec{{Addr: addrs[0]}, {Addr: addrs[1]}}, router.Config{
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q, err := r.ParseQuery("tri", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	rows := 0
	var streamErr error
	for _, err := range p.RowsErr(ctx) {
		if err != nil {
			streamErr = err
			break
		}
		if rows == 0 {
			servers[1].Close() // hard-kill one shard mid-drain
		}
		rows++
	}
	if streamErr == nil {
		t.Fatal("stream completed cleanly despite a killed shard")
	}
	var he *router.HostError
	if !errors.As(streamErr, &he) {
		t.Fatalf("killed shard surfaced as %v, want *HostError", streamErr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stream took %v to fail after the kill", elapsed)
	}
	if rows == 0 {
		t.Error("no rows drained before the kill was noticed")
	}
}

// TestRouterOverWire runs the differential wall through real connections —
// router.Open against live graphjoind servers, {2, 3} hosts per engine — to
// pin the wire encoding of shard specs end to end.
func TestRouterOverWire(t *testing.T) {
	ctx := context.Background()
	edges := wallEdges(300, 100)
	oracle := edgeStore(t, edges)
	var specs []router.HostSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, router.HostSpec{Addr: serveStore(t, edgeStore(t, edges))})
	}
	for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
		t.Run(string(alg), func(t *testing.T) {
			for _, n := range []int{2, 3} {
				r, err := router.Open(ctx, specs[:n], router.Config{})
				if err != nil {
					t.Fatal(err)
				}
				wallDifferential(t, oracle, r, alg)
				r.Close()
			}
		})
	}
}

// serveStore serves st on a loopback port for the test's life and returns
// the address.
func serveStore(t *testing.T, st *repro.Store) string {
	t.Helper()
	return serveQuerier(t, server.NewSingle(st))
}

// serveQuerier starts srv on a loopback port for the test's life and returns
// the address.
func serveQuerier(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// TestRouterStatsMerge checks that the routed handle's counters aggregate
// across hosts: after an execution, the summed statistics are non-trivial.
func TestRouterStatsMerge(t *testing.T) {
	ctx := context.Background()
	_, r := cluster(t, 2)
	q, err := r.ParseQuery("tri", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Count(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats(); got.Executions == 0 || got.Outputs == 0 {
		t.Errorf("merged stats show no executions/outputs: %+v", got)
	}
}

// TestCallerShardRejectedOverWire pins that a client of a served router
// setting Options.Shard gets the typed sentinel back, not an internal error:
// the shard is the router's own mechanism.
func TestCallerShardRejectedOverWire(t *testing.T) {
	ctx := context.Background()
	_, r := cluster(t, 2)
	addr := serveQuerier(t, server.New(server.Config{Queriers: map[string]repro.Querier{server.DefaultStore: r}}))
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, err := c.ParseQuery("q", "edge(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(q, repro.Options{Shard: &repro.Shard{Part: 1, Of: 2}}); !errors.Is(err, repro.ErrUnsupportedQuery) {
		t.Fatalf("caller-set shard through a served router: %v, want ErrUnsupportedQuery", err)
	}
}

// TestRouterDivergedReplica writes one extra low key straight into host 1's
// store, behind the router's back, so host 1 cuts its part from different
// contents than host 0. A routed row stream must then either equal the
// oracle (the extra key moved no boundary) or fail with ErrDiverged (host
// 1's part starts inside host 0's) — and never repeat a row. Across the
// edge sets below, both outcomes occur.
func TestRouterDivergedReplica(t *testing.T) {
	ctx := context.Background()
	diverged := 0
	for _, m := range []int64{200, 250, 300, 350, 400} {
		edges := wallEdges(m, 100)
		for _, e := range edges {
			e[0], e[1] = e[0]+10, e[1]+10 // leave room for a lower key
		}
		oracle := edgeStore(t, edges)
		lagging := edgeStore(t, edges)
		r, err := router.New([]repro.Querier{repro.Local(edgeStore(t, edges)), repro.Local(lagging)}, nil, router.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lagging.Apply("edge", [][]int64{{1, 50}}, nil); err != nil {
			t.Fatal(err)
		}
		q, err := oracle.ParseQuery("q", "edge(a, b), edge(b, c)")
		if err != nil {
			t.Fatal(err)
		}
		want, err := collectRows(ctx, func(ctx context.Context, emit func([]int64) bool) error {
			return oracle.Enumerate(ctx, q, routedOrder(t, q, repro.Options{Workers: 1}), emit)
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Prepare(q, repro.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]int64
		var streamErr error
		for row, err := range p.RowsErr(ctx) {
			if err != nil {
				streamErr = err
				break
			}
			got = append(got, row)
		}
		p.Close()
		r.Close()
		seen := make(map[string]bool, len(got))
		for _, row := range got {
			if k := fmt.Sprint(row); seen[k] {
				t.Fatalf("m=%d: row %v streamed twice", m, row)
			} else {
				seen[k] = true
			}
		}
		switch {
		case streamErr == nil:
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("m=%d: diverged replica streamed %d rows, oracle %d, and no error", m, len(got), len(want))
			}
		case errors.Is(streamErr, router.ErrDiverged):
			var he *router.HostError
			if !errors.As(streamErr, &he) || he.Index != 1 {
				t.Fatalf("m=%d: divergence blamed %v, want host 1", m, streamErr)
			}
			if len(got) > len(want) || fmt.Sprint(got) != fmt.Sprint(want[:len(got)]) {
				t.Fatalf("m=%d: rows before the divergence are not a prefix of the oracle", m)
			}
			diverged++
		default:
			t.Fatalf("m=%d: stream failed with %v, want ErrDiverged or none", m, streamErr)
		}
	}
	if diverged == 0 {
		t.Fatal("no edge set moved a boundary: the divergence check went unexercised")
	}
}
