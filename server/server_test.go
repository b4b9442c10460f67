package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/server"
)

// corpus is the full named-query set of the paper's §5.1 evaluation — the
// same corpus the in-process differential tests run.
func corpus() []*repro.Query {
	return []*repro.Query{
		query.Clique(3),
		query.Clique(4),
		query.Cycle(4),
		query.Path(3),
		query.Path(4),
		query.Tree(1),
		query.Tree(2),
		query.Comb(),
		query.Lollipop(2),
		query.Lollipop(3),
	}
}

// serve starts srv on a loopback listener and returns its address; the
// server is torn down with the test.
func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return l.Addr().String()
}

// dial connects a client to addr, closed with the test.
func dial(t *testing.T, addr string, opts ...client.Option) *client.Store {
	t.Helper()
	s, err := client.Dial(context.Background(), addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// collect drains an Enumerate into owned rows.
func collect(ctx context.Context, enumerate func(context.Context, func([]int64) bool) error) ([][]int64, error) {
	var rows [][]int64
	err := enumerate(ctx, func(t []int64) bool {
		rows = append(rows, append([]int64(nil), t...))
		return true
	})
	return rows, err
}

// graphStore loads the benchmark schema of g into a new store: "edge" (both
// directions), "fwd" (u < v), and the samples v1..v4 drawn at selectivity
// sel from sampleSeed (selectivity 1 samples every vertex).
func graphStore(t testing.TB, g *dataset.Graph, sel int, sampleSeed int64) *repro.Store {
	t.Helper()
	st := repro.NewStore()
	if err := dataset.Load(repro.Local(st), g, sel, sampleSeed); err != nil {
		t.Fatal(err)
	}
	return st
}

// applyEdges inserts and removes undirected edges as one atomic write that
// keeps the benchmark schema's invariants: both directions land in "edge"
// and the u < v orientation in "fwd". Self-loops are dropped.
func applyEdges(st *repro.Store, insert, remove [][2]int64) error {
	batches := map[string][]repro.Delta{}
	add := func(edges [][2]int64, del bool) {
		for _, e := range edges {
			u, v := min(e[0], e[1]), max(e[0], e[1])
			if u == v {
				continue
			}
			batches[query.Edge] = append(batches[query.Edge], repro.Delta{Tuple: []int64{u, v}, Delete: del}, repro.Delta{Tuple: []int64{v, u}, Delete: del})
			batches[query.Fwd] = append(batches[query.Fwd], repro.Delta{Tuple: []int64{u, v}, Delete: del})
		}
	}
	add(insert, false)
	add(remove, true)
	return st.ApplyAll(batches)
}

// sortRows sorts rows ascending, for comparing answers whose order differs.
func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		return relation.CompareTuples(rows[i], rows[j]) < 0
	})
}

// TestRemoteDifferential is the acceptance differential: a remote client
// must produce byte-identical results to the local Store across the full
// query corpus × both trie-driven engines — same counts, same rows, same
// order. Each query and engine runs two subtests: csr compares local and
// remote, sequentially and on four workers, and flat checks the remote
// answer against the brute-force oracle over the flat rows.
func TestRemoteDifferential(t *testing.T) {
	ctx := context.Background()
	st := graphStore(t, dataset.Generate(dataset.HolmeKim, 150, 520, 3), 15, 5)
	remote := dial(t, serve(t, server.NewSingle(st)))
	sameAsLocal := func(t *testing.T, q *repro.Query, opts repro.Options) {
		lp, err := st.Prepare(q, opts)
		if err != nil {
			t.Fatalf("local prepare: %v", err)
		}
		rp, err := remote.Prepare(q, opts)
		if err != nil {
			t.Fatalf("remote prepare: %v", err)
		}
		defer rp.Close()
		if lp.Algorithm() != rp.Algorithm() {
			t.Fatalf("algorithm: local %q, remote %q", lp.Algorithm(), rp.Algorithm())
		}
		ln, err := lp.Count(ctx)
		if err != nil {
			t.Fatalf("local count: %v", err)
		}
		rn, err := rp.Count(ctx)
		if err != nil {
			t.Fatalf("remote count: %v", err)
		}
		if ln != rn {
			t.Fatalf("count: local %d, remote %d", ln, rn)
		}
		lrows, err := collect(ctx, lp.Enumerate)
		if err != nil {
			t.Fatalf("local enumerate: %v", err)
		}
		rrows, err := collect(ctx, rp.Enumerate)
		if err != nil {
			t.Fatalf("remote enumerate: %v", err)
		}
		if len(lrows) != len(rrows) {
			t.Fatalf("rows: local %d, remote %d", len(lrows), len(rrows))
		}
		for i := range lrows {
			if relation.CompareTuples(lrows[i], rrows[i]) != 0 {
				t.Fatalf("row %d: local %v, remote %v (order must match)", i, lrows[i], rrows[i])
			}
		}
	}
	for _, q := range corpus() {
		want, err := collect(ctx, func(ctx context.Context, fn func([]int64) bool) error {
			return naive.Enumerate(ctx, q, st.DB(), fn)
		})
		if err != nil {
			t.Fatalf("%s naive enumerate: %v", q.Name, err)
		}
		sortRows(want)
		for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
			t.Run(fmt.Sprintf("%s/%s/csr", q.Name, alg), func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					sameAsLocal(t, q, repro.Options{Algorithm: alg, Workers: workers})
				}
			})
			t.Run(fmt.Sprintf("%s/%s/flat", q.Name, alg), func(t *testing.T) {
				opts := repro.Options{Algorithm: alg, Workers: 1}
				if n, err := remote.Count(ctx, q, opts); err != nil || n != int64(len(want)) {
					t.Fatalf("remote count %d (%v), naive %d", n, err, len(want))
				}
				rp, err := remote.Prepare(q, opts)
				if err != nil {
					t.Fatalf("remote prepare: %v", err)
				}
				defer rp.Close()
				rows, err := collect(ctx, rp.Enumerate)
				if err != nil {
					t.Fatalf("remote enumerate: %v", err)
				}
				sortRows(rows)
				if len(rows) != len(want) {
					t.Fatalf("rows: remote %d, naive %d", len(rows), len(want))
				}
				for i := range want {
					if relation.CompareTuples(rows[i], want[i]) != 0 {
						t.Fatalf("sorted row %d: remote %v, naive %v", i, rows[i], want[i])
					}
				}
			})
		}
	}
}

// TestHugeWorkersCount pins that Workers is no allocation size: a count
// asking for 1<<50 workers answers like a sequential one, in process and
// through a live server, which keeps serving afterwards.
func TestHugeWorkersCount(t *testing.T) {
	ctx := context.Background()
	st := graphStore(t, dataset.Generate(dataset.HolmeKim, 150, 520, 3), 1, 3)
	remote := dial(t, serve(t, server.NewSingle(st)))
	q := query.Clique(3)
	want, err := st.Count(ctx, q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
		opts := repro.Options{Algorithm: alg, Workers: 1 << 50}
		if n, err := st.Count(ctx, q, opts); err != nil || n != want {
			t.Errorf("%s in process: count %d (%v), want %d", alg, n, err, want)
		}
		if n, err := remote.Count(ctx, q, opts); err != nil || n != want {
			t.Errorf("%s remote: count %d (%v), want %d", alg, n, err, want)
		}
	}
	if n, err := remote.Count(ctx, q, repro.Options{Workers: 1}); err != nil || n != want {
		t.Errorf("after the huge-Workers requests: count %d (%v), want %d", n, err, want)
	}
}

// TestHelloVersionMismatch pins the Hello exchange's version check: a peer
// speaking the previous protocol is refused with the typed version error,
// and the same server still accepts a current client.
func TestHelloVersionMismatch(t *testing.T) {
	ctx := context.Background()
	st := graphStore(t, dataset.Generate(dataset.HolmeKim, 50, 120, 1), 1, 1)
	addr := serve(t, server.NewSingle(st))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hello wire.Enc
	hello.U64(wire.ProtocolVersion - 1)
	hello.Str("")
	if err := wire.WriteFrame(nc, wire.THello, 1, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, _, body, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TErr {
		t.Fatalf("reply to an old Hello: frame 0x%02x, want TErr", typ)
	}
	if err := wire.DecodeErr(body); !errors.Is(err, client.ErrVersion) {
		t.Errorf("reply to an old Hello: %v, want ErrVersion", err)
	}
	current := dial(t, addr)
	if _, err := current.Count(ctx, query.Clique(3), repro.Options{Workers: 1}); err != nil {
		t.Errorf("current client after the refused Hello: %v", err)
	}
}

// TestRemoteTxnUnderChurn is the transactional half of the acceptance
// differential: a remote read-transaction opened before a server-side write
// stream must keep answering from its pinned snapshot — agreeing with a
// local transaction opened at the same point — while fresh (non-transaction)
// reads on both sides track the writes.
func TestRemoteTxnUnderChurn(t *testing.T) {
	ctx := context.Background()
	st := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 300, 1200, 7), 10, 3)
	remote := dial(t, serve(t, server.NewSingle(st)))

	queries := []*repro.Query{query.Clique(3), query.Path(3), query.Cycle(4)}
	opts := repro.Options{Workers: 1} // default engine
	var locals []*repro.Prepared
	var remotes []repro.PreparedQuery
	baseline := make([]int64, len(queries))
	for i, q := range queries {
		lp, err := st.Prepare(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := remote.Prepare(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		locals, remotes = append(locals, lp), append(remotes, rp)
		if baseline[i], err = lp.Count(ctx); err != nil {
			t.Fatal(err)
		}
	}

	ltxn := st.ReadTxn()
	rtxn, err := remote.ReadTxn()
	if err != nil {
		t.Fatal(err)
	}

	// Server-side churn while both transactions stay open.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(99))
		for b := 0; b < 25; b++ {
			var ins, del [][2]int64
			for k := 0; k < 4; k++ {
				e := [2]int64{int64(rng.Intn(300)), int64(rng.Intn(300))}
				if e[0] == e[1] {
					continue
				}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
				} else {
					del = append(del, e)
				}
			}
			if err := applyEdges(st, ins, del); err != nil {
				t.Errorf("applyEdges: %v", err)
				return
			}
		}
	}()

	for round := 0; round < 8; round++ {
		for i := range queries {
			ln, err := ltxn.Count(ctx, locals[i])
			if err != nil {
				t.Fatalf("local txn count: %v", err)
			}
			rn, err := rtxn.Count(ctx, remotes[i])
			if err != nil {
				t.Fatalf("remote txn count: %v", err)
			}
			if ln != baseline[i] || rn != baseline[i] {
				t.Fatalf("%s round %d: txn counts local %d remote %d, want pinned %d",
					queries[i].Name, round, ln, rn, baseline[i])
			}
		}
	}
	<-done

	// Rows through the transaction agree too (same snapshot both sides).
	lrows, err := collect(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return ltxn.Enumerate(ctx, locals[0], emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	rrows, err := collect(ctx, func(ctx context.Context, emit func([]int64) bool) error {
		return rtxn.Enumerate(ctx, remotes[0], emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lrows) != len(rrows) {
		t.Fatalf("txn rows: local %d, remote %d", len(lrows), len(rrows))
	}
	for i := range lrows {
		if relation.CompareTuples(lrows[i], rrows[i]) != 0 {
			t.Fatalf("txn row %d: local %v, remote %v", i, lrows[i], rrows[i])
		}
	}

	// Fresh reads on both sides see the post-churn state (CSR handles stay
	// current under Apply) and agree with each other.
	for i := range queries {
		ln, err := locals[i].Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := remotes[i].Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ln != rn {
			t.Fatalf("%s fresh count: local %d, remote %d", queries[i].Name, ln, rn)
		}
	}
	if err := rtxn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteConcurrentClients drives N goroutine clients — each its own
// connection — through Prepare/Count/Rows/Batch against one server under
// live edge churn, asserting snapshot consistency during the churn and
// agreement with the local Store oracle once it quiesces. CI runs this under
// the race detector.
func TestRemoteConcurrentClients(t *testing.T) {
	ctx := context.Background()
	st := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 200, 800, 11), 10, 3)
	addr := serve(t, server.NewSingle(st))

	queries := []*repro.Query{query.Clique(3), query.Path(3)}
	opts := repro.Options{Workers: 1}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(4242))
		for b := 0; b < 60; b++ {
			var ins, del [][2]int64
			for k := 0; k < 3; k++ {
				e := [2]int64{int64(rng.Intn(200)), int64(rng.Intn(200))}
				if e[0] == e[1] {
					continue
				}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
				} else {
					del = append(del, e)
				}
			}
			if err := applyEdges(st, ins, del); err != nil {
				t.Errorf("applyEdges: %v", err)
				return
			}
		}
	}()

	const clients = 6
	errs := make(chan error, clients)
	finals := make([][]int64, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf("client %d: "+format, append([]any{ci}, args...)...):
				default:
				}
			}
			c, err := client.Dial(ctx, addr)
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer c.Close()
			var preps []repro.PreparedQuery
			for _, q := range queries {
				p, err := c.Prepare(q, opts)
				if err != nil {
					fail("prepare: %v", err)
					return
				}
				preps = append(preps, p)
			}
			running := true
			for running {
				select {
				case <-writerDone:
					running = false
				default:
				}
				// Transaction self-consistency: two reads of the same query
				// inside one snapshot agree, under any interleaving of writes.
				txn, err := c.ReadTxn()
				if err != nil {
					fail("begin: %v", err)
					return
				}
				n1, err1 := txn.Count(ctx, preps[0])
				n2, err2 := txn.Count(ctx, preps[0])
				if err1 != nil || err2 != nil {
					fail("txn counts: %v, %v", err1, err2)
					return
				}
				if n1 != n2 {
					fail("txn not snapshot-consistent: %d then %d", n1, n2)
					return
				}
				if err := txn.Close(); err != nil {
					fail("end: %v", err)
					return
				}
				// Batch shares one snapshot: the repeated request must agree.
				results, err := c.Batch(ctx, []repro.BatchRequest{
					{Prepared: preps[0]}, {Prepared: preps[1]}, {Prepared: preps[0]},
				})
				if err != nil {
					fail("batch: %v", err)
					return
				}
				for i, r := range results {
					if r.Err != nil {
						fail("batch result %d: %v", i, r.Err)
						return
					}
				}
				if results[0].Count != results[2].Count {
					fail("batch not snapshot-consistent: %d vs %d", results[0].Count, results[2].Count)
					return
				}
				// Streaming with early termination exercises cancel under load.
				rows := 0
				for range preps[1].Rows(ctx) {
					rows++
					if rows == 3 {
						break
					}
				}
			}
			// Quiesced: fresh counts must match the local oracle.
			finals[ci] = make([]int64, len(queries))
			for i, p := range preps {
				n, err := p.Count(ctx)
				if err != nil {
					fail("final count: %v", err)
					return
				}
				finals[ci][i] = n
			}
		}(ci)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for i, q := range queries {
		want, err := st.Count(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < clients; ci++ {
			if finals[ci][i] != want {
				t.Errorf("client %d %s: final count %d, local oracle %d", ci, q.Name, finals[ci][i], want)
			}
		}
	}
}

// TestRemoteRowsEarlyStop is the acceptance streaming check: a client that
// stops after k rows must stop the server-side execution — verified through
// the engine's Outputs counter, which lives server-side on the prepared
// handle — and the connection stays usable afterwards.
func TestRemoteRowsEarlyStop(t *testing.T) {
	ctx := context.Background()
	// Thousands of paths — far more than the client consumes.
	st := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 300, 1200, 5), 4, 1)
	// Tiny chunks and a tiny credit window so the server cannot run far
	// ahead of the consumer.
	remote := dial(t, serve(t, server.NewSingle(st)), client.WithStreamTuning(4, 2))

	q := query.Path(3)
	opts := repro.Options{Workers: 1}
	total, err := st.Count(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if total < 1000 {
		t.Fatalf("test graph too small for a streaming test: %d paths", total)
	}

	rp, err := remote.Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range rp.Rows(ctx) {
		got++
		if got == 5 {
			break
		}
	}
	if got != 5 {
		t.Fatalf("received %d rows, want 5", got)
	}
	stats, err := rp.(*client.Prepared).StatsErr(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outputs < 5 {
		t.Fatalf("server Outputs = %d, want >= 5", stats.Outputs)
	}
	if stats.Outputs >= total/2 {
		t.Fatalf("server kept producing after the client stopped: Outputs = %d of %d", stats.Outputs, total)
	}

	// The stream's cancel must not poison the connection: a full pass now
	// delivers every row.
	rows, err := collect(ctx, rp.Enumerate)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != total {
		t.Fatalf("full enumerate after early stop: %d rows, want %d", len(rows), total)
	}
}

// TestRemoteRowsContextCancel cancels the client context mid-stream: the
// enumeration must return the context error, the server must stop producing,
// and the connection must survive.
func TestRemoteRowsContextCancel(t *testing.T) {
	st := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 300, 1200, 6), 4, 1)
	remote := dial(t, serve(t, server.NewSingle(st)), client.WithStreamTuning(4, 2))

	q := query.Path(3)
	opts := repro.Options{Workers: 1}
	total, err := st.Count(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}

	rp, err := remote.Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err = rp.Enumerate(ctx, func([]int64) bool {
		seen++
		if seen == 3 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("enumerate after cancel: %v, want context.Canceled", err)
	}
	stats, err := rp.(*client.Prepared).StatsErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outputs >= total/2 {
		t.Fatalf("server kept producing after cancel: Outputs = %d of %d", stats.Outputs, total)
	}
	// The connection survives the cancellation.
	if _, err := rp.Count(context.Background()); err != nil {
		t.Fatalf("count after cancelled stream: %v", err)
	}
}

// TestShutdownDrains pins the graceful-shutdown contract: draining refuses
// new requests while in-flight streams finish (or the drain deadline cuts
// them off), and Serve reports ErrServerClosed.
func TestShutdownDrains(t *testing.T) {
	ctx := context.Background()
	srv := server.NewSingle(graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 300, 1200, 7), 4, 1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	streamer, err := client.Dial(ctx, l.Addr().String(), client.WithStreamTuning(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	bystander, err := client.Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	q := query.Path(3)
	sp, err := streamer.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bystander.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Park a stream mid-flight: the emit callback blocks until released, so
	// the request is provably in flight when Shutdown begins.
	firstRow := make(chan struct{})
	release := make(chan struct{})
	streamErr := make(chan error, 1)
	go func() {
		n := 0
		streamErr <- sp.Enumerate(ctx, func([]int64) bool {
			n++
			if n == 1 {
				close(firstRow)
				<-release
			}
			return true
		})
	}()
	<-firstRow

	// Shutdown with a short deadline: the parked stream cannot drain, so
	// Shutdown must return the deadline error after force-closing.
	shutCtx, shutCancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer shutCancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(shutCtx) }()

	// While draining, already-connected clients get a typed refusal for new
	// requests. Poll briefly: Shutdown's draining flag flips concurrently.
	deadline := time.After(2 * time.Second)
	for {
		_, err := bp.Count(ctx)
		if errors.Is(err, client.ErrShuttingDown) {
			break
		}
		if err != nil {
			// The drain deadline may already have closed the connection.
			break
		}
		select {
		case <-deadline:
			t.Fatal("draining server kept accepting requests")
		case <-time.After(10 * time.Millisecond):
		}
	}

	if err := <-shutdownDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with parked stream: %v, want DeadlineExceeded", err)
	}
	close(release)
	if err := <-streamErr; err == nil {
		t.Error("parked stream survived a forced shutdown")
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New connections are refused outright.
	if _, err := client.Dial(ctx, l.Addr().String()); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

// TestMultiTenant pins the store registry: connections bind to the store
// they name, schemas stay isolated, and unknown names are refused with the
// typed sentinel.
func TestMultiTenant(t *testing.T) {
	social := repro.NewStore()
	if err := social.DefineRelation("follows", 2); err != nil {
		t.Fatal(err)
	}
	if err := social.Load("follows", [][]int64{{1, 2}, {2, 3}, {1, 3}}); err != nil {
		t.Fatal(err)
	}
	road := repro.NewStore()
	if err := road.DefineRelation("road", 2); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, server.New(server.Config{Queriers: map[string]repro.Querier{
		"social": repro.Local(social),
		"road":   repro.Local(road),
	}}))

	ctx := context.Background()
	cs := dial(t, addr, client.WithStore("social"))
	cr := dial(t, addr, client.WithStore("road"))
	if got := cs.Relations(); len(got) != 1 || got[0] != "follows" {
		t.Fatalf("social schema = %v", got)
	}
	if got := cr.Relations(); len(got) != 1 || got[0] != "road" {
		t.Fatalf("road schema = %v", got)
	}
	q, err := cs.ParseQuery("fof", "follows(a,b), follows(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	n, err := cs.Count(ctx, q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // 1->2->3 is the only two-hop
		t.Fatalf("fof count = %d, want 1", n)
	}
	if _, err := cr.ParseQuery("fof", "follows(a,b), follows(b,c)"); !errors.Is(err, repro.ErrUnknownRelation) {
		t.Fatalf("cross-tenant relation leak: %v", err)
	}
	if _, err := client.Dial(ctx, addr, client.WithStore("nope")); !errors.Is(err, client.ErrUnknownStore) {
		t.Fatalf("unknown store: %v, want ErrUnknownStore", err)
	}
}
