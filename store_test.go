package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// relTuples extracts every tuple of a named relation from a store.
func relTuples(t *testing.T, s *Store, name string) [][]int64 {
	t.Helper()
	r, err := s.DB().Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, r.Len())
	for i := range out {
		out[i] = append([]int64(nil), r.Tuple(i)...)
	}
	return out
}

// pathStore builds a small directed-edge store for the transaction and batch
// tests: e(0,1), e(1,2), ..., a directed chain plus extras.
func pathStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	var tuples [][]int64
	for i := int64(0); i < 50; i++ {
		tuples = append(tuples, []int64{i, i + 1})
	}
	if err := s.Load("e", tuples); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreReadTxn: two queries inside one read-transaction agree with each
// other while ApplyDelta lands in between, and a fresh transaction (and the
// live handle) see the new state.
func TestStoreReadTxn(t *testing.T) {
	ctx := context.Background()
	s := pathStore(t)
	q2, err := s.ParseQuery("p2", "e(a,b), e(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q2, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	txn := s.ReadTxn()
	c1, err := txn.Count(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != before {
		t.Fatalf("txn count = %d, live count = %d before any write", c1, before)
	}
	// A write lands between the transaction's two reads: a new hub fanning
	// into the chain adds fresh 2-paths.
	if err := s.Apply("e", [][]int64{{100, 0}, {100, 1}, {100, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	c2, err := txn.Count(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Errorf("two reads in one txn disagree: %d then %d", c1, c2)
	}
	// Rows through the same txn agree with its counts too.
	var rows int64
	for range txn.Rows(ctx, p) {
		rows++
	}
	if rows != c1 {
		t.Errorf("txn Rows = %d, txn Count = %d", rows, c1)
	}

	after, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("live count %d did not grow past %d after Apply", after, before)
	}
	fresh := s.ReadTxn()
	c3, err := fresh.Count(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != after {
		t.Errorf("fresh txn = %d, live = %d", c3, after)
	}
}

// TestStoreReadTxnConcurrent hammers one transaction from several goroutines
// while a writer applies deltas: every read through the transaction must
// return the same pinned count (run under -race this also exercises the
// lease's synchronization).
func TestStoreReadTxnConcurrent(t *testing.T) {
	ctx := context.Background()
	s := pathStore(t)
	q, err := s.ParseQuery("p2", "e(a,b), e(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	txn := s.ReadTxn()
	want, err := txn.Count(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Apply("e", [][]int64{{200 + i, i % 50}}, nil)
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 4*10)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 10; k++ {
				got, err := txn.Count(ctx, p)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("pinned count moved: %d != %d", got, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreBatch: batched execution returns the same results as sequential
// execution, in request order, with per-request errors isolated.
func TestStoreBatch(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 250, 900, 3), 25, 5)
	var reqs []BatchRequest
	var want []int64
	for _, q := range corpusQueries() {
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		n, err := p.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, BatchRequest{Prepared: p})
		want = append(want, n)
	}
	// The batch's worker budget is GOMAXPROCS; 0 leaves it as it is.
	for _, workers := range []int{0, 1, 2, 4} {
		prev := runtime.GOMAXPROCS(workers)
		res, err := s.Batch(ctx, reqs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(res), len(reqs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d req %d: %v", workers, i, r.Err)
			}
			if r.Count != want[i] {
				t.Errorf("workers=%d req %d: count %d, want %d", workers, i, r.Count, want[i])
			}
		}
	}

	// Rows collection delivers the tuples alongside the count.
	p := reqs[0].Prepared
	res, err := s.Batch(ctx, []BatchRequest{{Prepared: p, Rows: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if int64(len(res[0].Rows)) != res[0].Count || res[0].Count != want[0] {
		t.Errorf("rows = %d, count = %d, want %d", len(res[0].Rows), res[0].Count, want[0])
	}

	// Per-request failures are isolated: a nil handle and a handle from a
	// different store fail their own slots only.
	other := pathStore(t)
	oq, err := other.ParseQuery("p", "e(a,b)")
	if err != nil {
		t.Fatal(err)
	}
	op, err := other.Prepare(oq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := s.Batch(ctx, []BatchRequest{{Prepared: nil}, {Prepared: op}, {Prepared: p}})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0].Err == nil {
		t.Error("nil Prepared should fail its request")
	}
	if !errors.Is(mixed[1].Err, ErrForeignPrepared) {
		t.Errorf("foreign Prepared error = %v, want ErrForeignPrepared", mixed[1].Err)
	}
	if mixed[2].Err != nil || mixed[2].Count != want[0] {
		t.Errorf("healthy request alongside failures: count=%d err=%v", mixed[2].Count, mixed[2].Err)
	}
}

// TestStoreBatchSharedSnapshot: all requests of one batch observe a single
// index state even while a writer churns the store.
func TestStoreBatchSharedSnapshot(t *testing.T) {
	ctx := context.Background()
	s := pathStore(t)
	q, err := s.ParseQuery("p2", "e(a,b), e(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]BatchRequest, 8)
	for i := range reqs {
		reqs[i] = BatchRequest{Prepared: p}
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Apply("e", [][]int64{{300 + i, i % 50}}, nil)
		}
	}()
	for round := 0; round < 5; round++ {
		prev := runtime.GOMAXPROCS(4)
		res, err := s.Batch(ctx, reqs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Count != res[0].Count {
				t.Fatalf("round %d: request %d saw %d, request 0 saw %d — not one snapshot",
					round, i, r.Count, res[0].Count)
			}
		}
	}
	close(stop)
	writer.Wait()
}

// TestStoreSchemaErrors covers DefineRelation/Load/Apply validation.
func TestStoreSchemaErrors(t *testing.T) {
	s := NewStore()
	if err := s.DefineRelation("likes", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineRelation("likes", 3); !errors.Is(err, ErrRelationExists) {
		t.Errorf("conflicting redefine: %v, want ErrRelationExists", err)
	}
	if err := s.DefineRelation("likes", 2); err != nil {
		t.Errorf("same-arity redefine: %v, want no-op nil", err)
	}
	if err := s.DefineRelation("bad name", 2); err == nil {
		t.Error("non-identifier name should fail")
	}
	if err := s.DefineRelation("1st", 2); err == nil {
		t.Error("digit-leading name should fail")
	}
	if err := s.DefineRelation("nullary", 0); err == nil {
		t.Error("arity 0 should fail")
	}
	if err := s.Load("nope", [][]int64{{1, 2}}); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("loading unknown relation: %v, want ErrUnknownRelation", err)
	}
	if err := s.Load("likes", [][]int64{{1, 2, 3}}); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("loading 3-ary tuple: %v, want ErrArityMismatch", err)
	}
	if err := s.Apply("likes", [][]int64{{1}}, nil); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("applying 1-ary insert: %v, want ErrArityMismatch", err)
	}
	if err := s.Apply("likes", nil, [][]int64{{1, 2, 3}}); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("applying 3-ary delete: %v, want ErrArityMismatch", err)
	}
	if err := s.Apply("nope", [][]int64{{1, 2}}, nil); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("applying to unknown relation: %v, want ErrUnknownRelation", err)
	}
	// Values outside the storage domain surface as typed errors, not the
	// storage layer's internal panic.
	if err := s.Load("likes", [][]int64{{-10, 2}}); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("loading negative value: %v, want ErrValueOutOfRange", err)
	}
	if err := s.Apply("likes", [][]int64{{1, 1 << 62}}, nil); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("applying sentinel-range value: %v, want ErrValueOutOfRange", err)
	}
	if err := s.Apply("likes", nil, [][]int64{{-1, 0}}); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("deleting negative value: %v, want ErrValueOutOfRange", err)
	}
}

// TestStoreParseQueryErrors covers the schema-checked parse paths: unknown
// relation, arity mismatch, unbound head variable, duplicate head
// variables.
func TestStoreParseQueryErrors(t *testing.T) {
	s := NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ParseQuery("q", "edge(a,b)"); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation: %v, want ErrUnknownRelation", err)
	}
	if _, err := s.ParseQuery("q", "e(a,b,c)"); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("arity mismatch: %v, want ErrArityMismatch", err)
	}
	if _, err := s.ParseQuery("q", "out(a, z) :- e(a, b)"); !errors.Is(err, ErrUnboundHeadVar) {
		t.Errorf("unbound head var: %v, want ErrUnboundHeadVar", err)
	}
	if q, err := s.ParseQuery("q", "out(a) :- e(a, b)"); err != nil {
		t.Errorf("projection head should parse: %v", err)
	} else if !q.Projected() {
		t.Errorf("out(a) :- e(a, b) should be projected")
	}
	if _, err := s.ParseQuery("q", "out(a, a) :- e(a, b)"); err == nil {
		t.Error("duplicate head var should fail")
	}
	if _, err := s.ParseQuery("q", "out(a, b) :-"); err == nil {
		t.Error("empty rule body should fail")
	}
	q, err := s.ParseQuery("ignored", "out(b, a) :- e(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "out" {
		t.Errorf("head name = %q, want out", q.Name)
	}
	if vars := q.Vars(); len(vars) != 2 || vars[0] != "b" || vars[1] != "a" {
		t.Errorf("head var order = %v, want [b a]", vars)
	}
}

// TestStoreHeadOrderedRows: a rule head reorders the emitted bindings.
func TestStoreHeadOrderedRows(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("e", [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	q, err := s.ParseQuery("", "rev(b, a) :- e(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	for row := range p.Rows(ctx) {
		got = append(got, row)
	}
	if len(got) != 1 || got[0][0] != 2 || got[0][1] != 1 {
		t.Errorf("head-ordered rows = %v, want [[2 1]]", got)
	}
}

// TestStoreApplyKeepsPlansValid pins the one freshness rule, over both
// trie engines, sequential and parallel, for a plain and a pushdown query:
// a handle prepared before a Store.Apply counts the post-write state without
// re-preparing, while a ReadTxn opened before the write keeps counting the
// pre-write state.
func TestStoreApplyKeepsPlansValid(t *testing.T) {
	ctx := context.Background()
	for _, alg := range []Algorithm{LFTJ, MS} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/Workers=%d", alg, workers), func(t *testing.T) {
				s := NewStore()
				if err := s.DefineRelation("e", 2); err != nil {
					t.Fatal(err)
				}
				if err := s.Load("e", [][]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}}); err != nil {
					t.Fatal(err)
				}
				for _, tc := range []struct {
					src       string
					pre, post int64
				}{
					{"tri(a, b, c) :- e(a, b), e(b, c), e(a, c)", 0, 1},
					{"hop(a, c) :- e(a, b), e(b, c), a < 2", 2, 3},
				} {
					q, err := s.ParseQuery("q", tc.src)
					if err != nil {
						t.Fatal(err)
					}
					p, err := s.Prepare(q, Options{Algorithm: alg, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if n, err := p.Count(ctx); err != nil || n != tc.pre {
						t.Fatalf("%s before the write: count = %d err = %v, want %d", tc.src, n, err, tc.pre)
					}
					txn := s.ReadTxn()
					if err := s.Apply("e", [][]int64{{0, 2}}, [][]int64{{3, 0}}); err != nil {
						t.Fatal(err)
					}
					if n, err := p.Count(ctx); err != nil || n != tc.post {
						t.Errorf("%s handle after the write: count = %d err = %v, want %d", tc.src, n, err, tc.post)
					}
					if n, err := txn.Count(ctx, p); err != nil || n != tc.pre {
						t.Errorf("%s txn opened before the write: count = %d err = %v, want %d", tc.src, n, err, tc.pre)
					}
					// Undo, so the next query starts from the loaded state.
					if err := s.Apply("e", [][]int64{{3, 0}}, [][]int64{{0, 2}}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPrepareTypedValidation: unknown algorithm names fail eagerly at
// Prepare with typed errors.
func TestPrepareTypedValidation(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.ErdosRenyi, 50, 100, 1), 1, 1)
	if _, err := s.Prepare(Triangles(), Options{Algorithm: "nope"}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v, want ErrUnknownAlgorithm", err)
	}
	for _, alg := range Algorithms() {
		if _, err := s.Prepare(Triangles(), Options{Algorithm: alg, Workers: 1}); err != nil {
			t.Errorf("registered algorithm %q failed Prepare: %v", alg, err)
		}
	}
}

// TestGraphApplyEdges: undirected edge writes through one ApplyAll maintain
// the benchmark schema's invariants (edge symmetric, fwd oriented) and keep
// live handles serving current data.
func TestGraphApplyEdges(t *testing.T) {
	ctx := context.Background()
	s := edgeStore(t, [][2]int64{{0, 1}, {1, 2}})
	p, err := s.Prepare(Triangles(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Count(ctx); err != nil || n != 0 {
		t.Fatalf("initial triangles = %d err = %v", n, err)
	}
	// Insert the closing edge reversed: orientation is normalized.
	if err := applyEdges(s, [][2]int64{{2, 0}}, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Count(ctx); err != nil || n != 1 {
		t.Fatalf("after insert: triangles = %d err = %v, want 1", n, err)
	}
	// The symmetric relation holds both directions of each edge.
	sym, err := s.ParseQuery("sym", "edge(a, b), edge(b, a)")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(ctx, sym, Options{Workers: 1}); err != nil || n != 6 {
		t.Fatalf("symmetric pairs = %d err = %v, want 6", n, err)
	}
	if err := applyEdges(s, nil, [][2]int64{{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if n, err := p.Count(ctx); err != nil || n != 0 {
		t.Fatalf("after remove: triangles = %d err = %v, want 0", n, err)
	}
	// An edge on both sides of one batch resolves as delete-after-insert
	// and never lands.
	if err := applyEdges(s, [][2]int64{{0, 5000}}, [][2]int64{{0, 5000}}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(ctx, sym, Options{Workers: 1}); err != nil || n != 4 {
		t.Errorf("insert+remove of one edge: symmetric pairs = %d err = %v, want 4", n, err)
	}
	// Out-of-domain vertices fail with a typed error, not a storage panic.
	if err := applyEdges(s, [][2]int64{{-1, 3}}, nil); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("negative vertex: %v, want ErrValueOutOfRange", err)
	}
}

// TestGraphApplyEdgesConcurrent runs undirected edge writers concurrently
// (meaningful under -race), then checks that every edge landed in both
// relations: edge holds both directions of each fwd tuple.
func TestGraphApplyEdgesConcurrent(t *testing.T) {
	s := edgeStore(t, [][2]int64{{0, 1}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				base := int64(10 + w*100 + i)
				if err := applyEdges(s, [][2]int64{{base, base + 1}}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fwd, err := s.DB().Len("fwd")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := s.DB().Len("edge")
	if err != nil {
		t.Fatal(err)
	}
	if fwd != 81 || edge != 2*fwd {
		t.Errorf("fwd holds %d edges, edge %d tuples; want 81 and 162", fwd, edge)
	}
}

// TestRowsCancellation: cancelling the context mid-stream truncates Rows,
// surfaces context.Canceled through RowsErr, and stops Enumerate.
func TestRowsCancellation(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 2000, 8000, 8), 1, 8)
	p, err := s.Prepare(Triangles(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	total, err := p.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total < 100 {
		t.Fatalf("graph too sparse for a cancellation test: %d triangles", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows int64
	var sawErr error
	for row, err := range p.RowsErr(ctx) {
		if err != nil {
			sawErr = err
			break
		}
		_ = row
		rows++
		if rows == 1 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Errorf("RowsErr after cancel: err = %v, want context.Canceled", sawErr)
	}
	if rows == 0 || rows >= total {
		t.Errorf("consumed %d of %d rows; expected a truncated stream", rows, total)
	}

	// Rows (the error-discarding variant) just ends early; the context
	// reports why.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	rows = 0
	for range p.Rows(ctx2) {
		rows++
		if rows == 1 {
			cancel2()
		}
	}
	if rows >= total {
		t.Errorf("Rows consumed %d of %d rows after cancel", rows, total)
	}
	if ctx2.Err() == nil {
		t.Error("context should report cancellation")
	}
}

// TestEnumerateCancellation: a context cancelled mid-run stops Enumerate with
// the context error.
func TestEnumerateCancellation(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 2000, 8000, 8), 1, 8)
	p, err := s.Prepare(Triangles(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	err = p.Enumerate(ctx, func([]int64) bool {
		n++
		if n == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Enumerate after cancel: err = %v (saw %d rows), want context.Canceled", err, n)
	}
}

// TestStoreDirectedLabeled: a schema beyond the benchmark's — a directed,
// edge-labeled graph as one relation per label.
func TestStoreDirectedLabeled(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	for _, rel := range []string{"follows", "likes"} {
		if err := s.DefineRelation(rel, 2); err != nil {
			t.Fatal(err)
		}
	}
	// follows is directed: 0→1→2→0 is a cycle, plus 2→3.
	if err := s.Load("follows", [][]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("likes", [][]int64{{2, 0}, {3, 1}}); err != nil {
		t.Fatal(err)
	}
	// Directed 2-paths closed by a like back to the start.
	q, err := s.ParseQuery("closed", "follows(a,b), follows(b,c), likes(c,a)")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Count(ctx, q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// a=0,b=1,c=2 closed by likes(2,0); a=1,b=2,c=3 closed by likes(3,1).
	if n != 2 {
		t.Errorf("closed follows-likes patterns = %d, want 2", n)
	}
	// Directed triangles need all three arcs; reversing one must not count.
	tri, err := s.ParseQuery("tri", "follows(a,b), follows(b,c), follows(c,a)")
	if err != nil {
		t.Fatal(err)
	}
	if n, err = s.Count(ctx, tri, Options{Workers: 1}); err != nil || n != 3 {
		t.Errorf("directed triangle bindings = %d err = %v, want 3 (one cycle, three rotations)", n, err)
	}
	// Ternary relation: labeled arcs in one relation, label as a column.
	if err := s.DefineRelation("arc", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("arc", [][]int64{{0, 7, 1}, {1, 7, 2}, {0, 8, 2}}); err != nil {
		t.Fatal(err)
	}
	same, err := s.ParseQuery("same", "arc(a, l, b), arc(b, l, c)")
	if err != nil {
		t.Fatal(err)
	}
	if n, err = s.Count(ctx, same, Options{Workers: 1}); err != nil || n != 1 {
		t.Errorf("same-label 2-paths = %d err = %v, want 1", n, err)
	}
}

// TestStoreRelationsListing: Relations/Arity reflect definitions.
func TestStoreRelationsListing(t *testing.T) {
	s := NewStore()
	if err := s.DefineRelation("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineRelation("a", 3); err != nil {
		t.Fatal(err)
	}
	rels := s.Relations()
	if len(rels) != 2 || rels[0] != "a" || rels[1] != "b" {
		t.Errorf("Relations() = %v, want [a b]", rels)
	}
	if arity, err := s.Arity("a"); err != nil || arity != 3 {
		t.Errorf("Arity(a) = %d, %v", arity, err)
	}
	if _, err := s.Arity("zzz"); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("Arity(zzz): %v, want ErrUnknownRelation", err)
	}
}

// TestStoreEnumerateMatchesRows sanity-checks the one-shot store Enumerate
// against collected Rows on an explicit schema.
func TestStoreEnumerateMatchesRows(t *testing.T) {
	ctx := context.Background()
	s := pathStore(t)
	q, err := s.ParseQuery("p2", "e(a,b), e(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	var enumerated [][]int64
	if err := s.Enumerate(ctx, q, Options{Workers: 1}, func(tu []int64) bool {
		enumerated = append(enumerated, append([]int64(nil), tu...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	for row := range p.Rows(ctx) {
		rows = append(rows, row)
	}
	if len(rows) != len(enumerated) {
		t.Fatalf("Rows = %d tuples, Enumerate = %d", len(rows), len(enumerated))
	}
	sortedRows(rows)
	sortedRows(enumerated)
	for i := range rows {
		if relation.CompareTuples(rows[i], enumerated[i]) != 0 {
			t.Fatalf("row %d: %v vs %v", i, rows[i], enumerated[i])
		}
	}
}
