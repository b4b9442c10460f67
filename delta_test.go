package repro

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"testing"
)

// pairStore builds a two-relation schema whose test invariant is that "a"
// and "b" always hold the same tuples (writes go through ApplyAll).
func pairStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for _, name := range []string{"a", "b"} {
		if err := s.DefineRelation(name, 2); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestApplyAllSemantics pins the per-relation write semantics of the atomic
// multi-relation path: idempotent inserts/deletes and delete-after-insert
// within one batch, matching Apply.
func TestApplyAllSemantics(t *testing.T) {
	s := pairStore(t)
	err := s.ApplyAll(map[string][]Delta{
		"a": {Insert(1, 2), Insert(1, 2), Insert(3, 4)},
		"b": {Insert(1, 2), Insert(9, 9), Remove(9, 9)}, // 9,9 never lands
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func(rel string) int64 {
		t.Helper()
		q, err := s.ParseQuery("q", rel+"(x, y)")
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.Count(context.Background(), q, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count("a"); got != 2 {
		t.Errorf("a = %d tuples, want 2 (duplicate insert merged)", got)
	}
	if got := count("b"); got != 1 {
		t.Errorf("b = %d tuples, want 1 (delete-after-insert)", got)
	}
	// Deleting an absent tuple is a no-op; removing a present one lands.
	err = s.ApplyAll(map[string][]Delta{
		"a": {Remove(7, 7), Remove(3, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := count("a"); got != 1 {
		t.Errorf("a = %d tuples after delete, want 1", got)
	}
}

// TestApplyAllChecksUpFront pins the all-or-nothing contract: a schema error
// in any batch fails the whole call before any relation is touched.
func TestApplyAllChecksUpFront(t *testing.T) {
	s := pairStore(t)
	cases := []struct {
		name    string
		batches map[string][]Delta
		want    error
	}{
		{"unknown relation", map[string][]Delta{"a": {Insert(1, 2)}, "nope": {Insert(1, 2)}}, ErrUnknownRelation},
		{"arity", map[string][]Delta{"a": {Insert(1, 2)}, "b": {Insert(1)}}, ErrArityMismatch},
		{"domain", map[string][]Delta{"a": {Insert(1, 2)}, "b": {Remove(-1, 2)}}, ErrValueOutOfRange},
	}
	for _, c := range cases {
		if err := s.ApplyAll(c.batches); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		q, _ := s.ParseQuery("q", "a(x, y)")
		n, err := s.Count(context.Background(), q, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("%s: failed ApplyAll leaked a write into %q", c.name, "a")
		}
	}
}

// TestApplyAllAtomicSnapshot hammers ApplyAll from a writer while snapshot
// readers check the cross-relation invariant (a and b identical): because
// all batches land under one lock acquisition, no snapshot may ever observe
// the relations torn.
func TestApplyAllAtomicSnapshot(t *testing.T) {
	ctx := context.Background()
	s := pairStore(t)
	qa, err := s.ParseQuery("qa", "a(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.ParseQuery("qb", "b(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := s.Prepare(qa, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.Prepare(qb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 200; i++ {
			deltas := []Delta{Insert(i, i+1)}
			if i >= 10 {
				deltas = append(deltas, Remove(i-10, i-9))
			}
			if err := s.ApplyAll(map[string][]Delta{"a": deltas, "b": deltas}); err != nil {
				t.Errorf("ApplyAll: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				txn := s.ReadTxn()
				na, err1 := txn.Count(ctx, pa)
				nb, err2 := txn.Count(ctx, pb)
				if err1 != nil || err2 != nil {
					t.Errorf("txn counts: %v, %v", err1, err2)
					return
				}
				if na != nb {
					t.Errorf("torn snapshot: |a| = %d, |b| = %d", na, nb)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestApplyAllAtomicForExecutions extends the ApplyAll contract to bare
// executions, outside any transaction: p and q always hold the same 2 001
// values while a writer swaps 1 and 3999 in both through ApplyAll, so every
// count of p(a), q(a) must be 2 001. An execution that read p before a swap
// and q after it would count 2 000. Parallel Counts are included: their
// §4.10 jobs must all read the one state the execution pinned.
func TestApplyAllAtomicForExecutions(t *testing.T) {
	const n = 2001
	ctx := context.Background()
	s := NewStore()
	values := make([][]int64, n)
	for i := range values {
		values[i] = []int64{int64(i)}
	}
	for _, name := range []string{"p", "q"} {
		if err := s.DefineRelation(name, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Load(name, values); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := s.ParseQuery("pq", "p(a), q(a)")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{LFTJ, MS} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(t *testing.T) {
				p, err := s.Prepare(pq, Options{Algorithm: alg, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				writes := make(chan int)
				go func() {
					w := 0
					defer func() { writes <- w }()
					for ; ; w++ {
						select {
						case <-stop:
							return
						default:
						}
						swap := []Delta{Remove(1), Insert(3999)}
						if w%2 == 1 {
							swap = []Delta{Remove(3999), Insert(1)}
						}
						if err := s.ApplyAll(map[string][]Delta{"p": swap, "q": swap}); err != nil {
							t.Errorf("ApplyAll: %v", err)
							return
						}
					}
				}()
				torn, runs := 0, 300
				for i := 0; i < runs; i++ {
					got, err := p.Count(ctx)
					if err != nil {
						t.Error(err)
						break
					}
					if got != n {
						torn++
					}
				}
				close(stop)
				if w := <-writes; w == 0 {
					t.Fatal("the writer never ran beside the readers")
				}
				if torn > 0 {
					t.Errorf("%d of %d executions read a torn ApplyAll (count != %d)", torn, runs, n)
				}
			})
		}
	}
}

// stubPrepared is a PreparedQuery from "some other implementation" — the
// Local adapter must isolate it instead of executing it.
type stubPrepared struct{}

func (stubPrepared) Query() *Query                                       { return nil }
func (stubPrepared) Algorithm() string                                   { return "stub" }
func (stubPrepared) Count(context.Context) (int64, error)                { return 0, nil }
func (stubPrepared) Enumerate(context.Context, func([]int64) bool) error { return nil }
func (stubPrepared) Rows(context.Context) iter.Seq[[]int64]              { return func(func([]int64) bool) {} }
func (stubPrepared) RowsErr(context.Context) iter.Seq2[[]int64, error] {
	return func(func([]int64, error) bool) {}
}
func (stubPrepared) Stats() ExecStats { return ExecStats{} }
func (stubPrepared) Close() error     { return nil }

// TestLocalQuerier pins the Local adapter: the full Querier flow over a
// Store, with foreign handles isolated per-request in Batch and rejected in
// transactions.
func TestLocalQuerier(t *testing.T) {
	ctx := context.Background()
	q := Local(NewStore())
	if err := q.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := q.Load("e", [][]int64{{0, 1}, {1, 2}, {2, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := q.Relations(); len(got) != 1 || got[0] != "e" {
		t.Fatalf("Relations = %v", got)
	}
	if arity, err := q.Arity("e"); err != nil || arity != 2 {
		t.Fatalf("Arity = %d, %v", arity, err)
	}
	pat, err := q.ParseQuery("tri", "e(a, b), e(b, c), e(c, a)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Prepare(pat, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	results, err := q.Batch(ctx, []BatchRequest{
		{Prepared: p},
		{Prepared: stubPrepared{}},
		{Prepared: p, Rows: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Count != 3 {
		t.Errorf("batch[0] = %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrForeignPrepared) {
		t.Errorf("batch[1].Err = %v, want ErrForeignPrepared", results[1].Err)
	}
	if results[2].Err != nil || int64(len(results[2].Rows)) != 3 {
		t.Errorf("batch[2] = %+v", results[2])
	}
	txn, err := q.ReadTxn()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Close()
	if _, err := txn.Count(ctx, stubPrepared{}); !errors.Is(err, ErrForeignPrepared) {
		t.Errorf("txn foreign count: %v, want ErrForeignPrepared", err)
	}
	tn, err := txn.Count(ctx, p)
	if err != nil || tn != 3 {
		t.Fatalf("txn count = %d, %v", tn, err)
	}
	rows := 0
	for range txn.Rows(ctx, p) {
		rows++
	}
	if rows != 3 {
		t.Fatalf("txn rows = %d, want 3", rows)
	}
	if err := q.ApplyAll(map[string][]Delta{"e": {Remove(2, 0)}}); err != nil {
		t.Fatal(err)
	}
	if n, err := q.Count(ctx, pat, Options{Workers: 1}); err != nil || n != 0 {
		t.Fatalf("count after ApplyAll = %d, %v; want 0", n, err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
