package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/dataset"
	"repro/server"
)

// serve boots a single-tenant server for st on a loopback port.
func serve(t *testing.T, st *repro.Store) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewSingle(st)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Store {
	t.Helper()
	c, err := client.Dial(context.Background(), addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDatasetLoadOverWire: the benchmark schema loaded through a dialed
// Querier serves the same triangle and 3-path counts as the same schema
// loaded into a local store.
func TestDatasetLoadOverWire(t *testing.T) {
	ctx := context.Background()
	g := dataset.Generate(dataset.HolmeKim, 200, 700, 5)
	local := repro.NewStore()
	if err := dataset.Load(repro.Local(local), g, 10, 3); err != nil {
		t.Fatal(err)
	}
	remote := dial(t, serve(t, repro.NewStore()))
	if err := dataset.Load(remote, g, 10, 3); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*repro.Query{repro.Triangles(), repro.Paths(3)} {
		opts := repro.Options{Workers: 1}
		want, err := local.Count(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Count(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 || got != want {
			t.Errorf("%s: remote count %d, local %d (want equal and non-zero)", q.Name, got, want)
		}
	}
}

// TestDialFailure pins the error contract of an unreachable server: a plain
// error, not a panic or a hang.
func TestDialFailure(t *testing.T) {
	// Reserve a port and close it so nothing listens there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := client.Dial(context.Background(), addr); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestDialRetry pins WithDialRetry: a server that starts listening only after
// the first attempts have failed is still reached, a bounded retry budget
// against a port that never opens reports the last dial error, and context
// cancellation cuts the backoff sleeps short.
func TestDialRetry(t *testing.T) {
	st := repro.NewStore()

	// Reserve a port, close it, and bring the server up only after a delay —
	// the booting-cluster shape WithDialRetry exists for.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	go func() {
		time.Sleep(150 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port re-taken by another process; the dial below fails loudly
		}
		srv := server.NewSingle(st)
		t.Cleanup(func() { srv.Close() })
		srv.Serve(l2)
	}()
	c, err := client.Dial(context.Background(), addr, client.WithDialRetry(20, 25*time.Millisecond))
	if err != nil {
		t.Fatalf("dial with retry against delayed listener: %v", err)
	}
	c.Close()

	// A port that never opens must exhaust the budget, not hang.
	l3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l3.Addr().String()
	l3.Close()
	if _, err := client.Dial(context.Background(), dead, client.WithDialRetry(3, time.Millisecond)); err == nil {
		t.Fatal("dial with retry to closed port succeeded")
	}

	// Context cancellation interrupts the backoff sleep.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.Dial(ctx, dead, client.WithDialRetry(100, time.Second)); err == nil {
		t.Fatal("dial survived a cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled dial took %v, want prompt return", elapsed)
	}
}

// TestTypedErrorsAcrossWire pins that every schema- and planning-level typed
// error survives the network boundary for errors.Is — the property that lets
// error-handling code move between Local and Dial unchanged.
func TestTypedErrorsAcrossWire(t *testing.T) {
	st := repro.NewStore()
	if err := st.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	c := dial(t, serve(t, st))

	if err := c.DefineRelation("e", 3); !errors.Is(err, repro.ErrRelationExists) {
		t.Errorf("conflicting redefine: %v, want ErrRelationExists", err)
	}
	if err := c.DefineRelation("e", 2); err != nil {
		t.Errorf("same-arity redefine: %v, want no-op nil", err)
	}
	if err := c.DefineRelation("bad name", 2); err == nil {
		t.Error("bad identifier accepted")
	}
	if err := c.Load("nope", nil); !errors.Is(err, repro.ErrUnknownRelation) {
		t.Errorf("load unknown: %v, want ErrUnknownRelation", err)
	}
	if err := c.Load("e", [][]int64{{1}}); !errors.Is(err, repro.ErrArityMismatch) {
		t.Errorf("load arity: %v, want ErrArityMismatch", err)
	}
	if err := c.Apply("e", [][]int64{{-1, 2}}, nil); !errors.Is(err, repro.ErrValueOutOfRange) {
		t.Errorf("apply domain: %v, want ErrValueOutOfRange", err)
	}
	if _, err := c.ParseQuery("q", "nope(a, b)"); !errors.Is(err, repro.ErrUnknownRelation) {
		t.Errorf("parse unknown relation: %v, want ErrUnknownRelation", err)
	}
	if _, err := c.ParseQuery("q", "e(a, b, c)"); !errors.Is(err, repro.ErrArityMismatch) {
		t.Errorf("parse arity: %v, want ErrArityMismatch", err)
	}
	if _, err := c.ParseQuery("q", "q(a) :- e(a, b)"); err != nil {
		t.Errorf("projection head should parse over the wire: %v", err)
	}
	q, err := c.ParseQuery("q", "e(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(q, repro.Options{Algorithm: "nope"}); !errors.Is(err, repro.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := c.Arity("nope"); !errors.Is(err, repro.ErrUnknownRelation) {
		t.Errorf("arity unknown: %v, want ErrUnknownRelation", err)
	}
	// A malformed shard spec is refused with the local sentinel, through
	// the wire.
	bad := &repro.Shard{Part: 3, Of: 3}
	if _, err := c.Prepare(q, repro.Options{Shard: bad}); !errors.Is(err, repro.ErrUnsupportedQuery) {
		t.Errorf("shard part out of range: %v, want ErrUnsupportedQuery", err)
	}
}

// TestForeignPrepared pins handle hygiene: a handle prepared on one
// connection cannot execute on another connection's transaction or batch.
func TestForeignPrepared(t *testing.T) {
	ctx := context.Background()
	st := repro.NewStore()
	if err := st.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("e", [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, st)
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	q, err := c1.ParseQuery("q", "e(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c1.Prepare(q, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	txn2, err := c2.ReadTxn()
	if err != nil {
		t.Fatal(err)
	}
	defer txn2.Close()
	if _, err := txn2.Count(ctx, p1); !errors.Is(err, repro.ErrForeignPrepared) {
		t.Errorf("foreign txn count: %v, want ErrForeignPrepared", err)
	}
	results, err := c2.Batch(ctx, []repro.BatchRequest{{Prepared: p1}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, repro.ErrForeignPrepared) {
		t.Errorf("foreign batch: %v, want ErrForeignPrepared", results[0].Err)
	}
	// Closing a handle invalidates it server-side.
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Count(ctx); !errors.Is(err, client.ErrUnknownHandle) {
		t.Errorf("count after close: %v, want ErrUnknownHandle", err)
	}
}

// TestRemoteApplyAll drives the atomic multi-relation write through the wire
// and checks both the write semantics and the schema checks.
func TestRemoteApplyAll(t *testing.T) {
	ctx := context.Background()
	st := repro.NewStore()
	for _, name := range []string{"follows", "likes"} {
		if err := st.DefineRelation(name, 2); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, serve(t, st))
	err := c.ApplyAll(map[string][]repro.Delta{
		"follows": {repro.Insert(1, 2), repro.Insert(2, 3)},
		"likes":   {repro.Insert(3, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.ParseQuery("loop", "follows(a, b), follows(b, c), likes(c, a)")
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Count(ctx, q, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loop count = %d, want 1", n)
	}
	// Deletes and inserts in one call; delete-after-insert per relation.
	err = c.ApplyAll(map[string][]repro.Delta{
		"likes": {repro.Remove(3, 1), repro.Insert(9, 9), repro.Remove(9, 9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err = c.Count(ctx, q, repro.Options{Workers: 1}); err != nil || n != 0 {
		t.Fatalf("after delete: count %d err %v, want 0", n, err)
	}
	// A failed batch is rejected as a whole with the typed error.
	err = c.ApplyAll(map[string][]repro.Delta{
		"follows": {repro.Insert(5, 6)},
		"nope":    {repro.Insert(1, 1)},
	})
	if !errors.Is(err, repro.ErrUnknownRelation) {
		t.Fatalf("bad batch: %v, want ErrUnknownRelation", err)
	}
	fresh, err := c.ParseQuery("f", "follows(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if n, err = c.Count(ctx, fresh, repro.Options{Workers: 1}); err != nil || n != 2 {
		t.Fatalf("failed batch leaked a write: count %d err %v, want 2", n, err)
	}
}

// TestQuerierSeam runs the same workload against repro.Local and a Dial'd
// client — the one-constructor-change property the shared interface exists
// for — and requires identical behavior.
func TestQuerierSeam(t *testing.T) {
	ctx := context.Background()
	workload := func(q repro.Querier) (int64, [][]int64, error) {
		if err := q.DefineRelation("edge", 2); err != nil {
			return 0, nil, err
		}
		if err := q.Load("edge", [][]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}}); err != nil {
			return 0, nil, err
		}
		if err := q.Apply("edge", [][]int64{{3, 0}}, [][]int64{{2, 3}}); err != nil {
			return 0, nil, err
		}
		pat, err := q.ParseQuery("tri", "edge(a, b), edge(b, c), edge(c, a)")
		if err != nil {
			return 0, nil, err
		}
		p, err := q.Prepare(pat, repro.Options{Workers: 1})
		if err != nil {
			return 0, nil, err
		}
		defer p.Close()
		txn, err := q.ReadTxn()
		if err != nil {
			return 0, nil, err
		}
		defer txn.Close()
		n, err := txn.Count(ctx, p)
		if err != nil {
			return 0, nil, err
		}
		var rows [][]int64
		for row := range txn.Rows(ctx, p) {
			rows = append(rows, append([]int64(nil), row...))
		}
		results, err := q.Batch(ctx, []repro.BatchRequest{{Prepared: p, Rows: true}})
		if err != nil {
			return 0, nil, err
		}
		if results[0].Err != nil {
			return 0, nil, results[0].Err
		}
		if results[0].Count != n {
			return 0, nil, errors.New("batch count disagrees with txn count")
		}
		return n, rows, nil
	}

	ln, lrows, err := workload(repro.Local(repro.NewStore()))
	if err != nil {
		t.Fatalf("local workload: %v", err)
	}
	remote := dial(t, serve(t, repro.NewStore()))
	rn, rrows, err := workload(remote)
	if err != nil {
		t.Fatalf("remote workload: %v", err)
	}
	if ln != rn || len(lrows) != len(rrows) {
		t.Fatalf("seam mismatch: local (%d, %d rows), remote (%d, %d rows)", ln, len(lrows), rn, len(rrows))
	}
	for i := range lrows {
		for k := range lrows[i] {
			if lrows[i][k] != rrows[i][k] {
				t.Fatalf("row %d: local %v, remote %v", i, lrows[i], rrows[i])
			}
		}
	}
	// The loaded cycle 0→1→2→0 matches the directed pattern in all three
	// rotations; the applied churn (insert 3→0, delete 2→3) adds none.
	if ln != 3 {
		t.Fatalf("triangle count = %d, want 3", ln)
	}
}

// TestRemoteExplain pins that the compiled-plan rendering crosses the wire.
func TestRemoteExplain(t *testing.T) {
	st := repro.NewStore()
	if err := st.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	c := dial(t, serve(t, st))
	q, err := c.ParseQuery("q", "e(a, b), e(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Prepare(q, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := p.(*client.Prepared).Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("empty explanation")
	}
}
