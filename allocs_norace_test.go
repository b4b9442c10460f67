//go:build !race

package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// TestRowsChunkedAllocs gates the cost of owning rows: a Rows stream hands
// every result to the consumer for keeps, yet allocates once per chunk of up
// to 256 rows, not once per row. The race detector changes allocation
// counts, hence the build tag.
func TestRowsChunkedAllocs(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 2000, 3), 1, 3)
	for _, alg := range []Algorithm{LFTJ, MS} {
		p, err := s.Prepare(Triangles(), Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		stream := func() {
			n = 0
			for range p.Rows(ctx) {
				n++
			}
		}
		stream()
		stream()
		allocs := testing.AllocsPerRun(10, stream)
		if limit := float64(n/64 + 16); n < 1000 || allocs > limit {
			t.Errorf("%s: a %d-row stream allocates %.1f objects, want <= %.0f (and 1000+ rows)", alg, n, allocs, limit)
		}
	}
}

// TestTxnExecAllocs gates the transaction path: a Count inside a ReadTxn
// hands the engine the transaction's generation and builds nothing per
// execution, so it allocates exactly what the handle's own Count does.
func TestTxnExecAllocs(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 2000, 3), 1, 3)
	for _, alg := range []Algorithm{LFTJ, MS} {
		p, err := s.Prepare(Triangles(), Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		txn := s.ReadTxn()
		count := func(run func(context.Context) (int64, error)) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := run(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		direct := count(p.Count)
		inTxn := count(func(ctx context.Context) (int64, error) { return txn.Count(ctx, p) })
		t.Logf("%s: Prepared.Count %.0f allocs, Txn.Count %.0f", alg, direct, inTxn)
		if inTxn != direct {
			t.Errorf("%s: Txn.Count allocates %.1f objects, Prepared.Count %.1f: want the same", alg, inTxn, direct)
		}
	}
}

// TestPointExecAllocs gates the fixed cost of one execution: a Count of the
// served point query on a prepared handle allocates at most 2 objects (0 on
// go1.24), because the engine takes its execution state from a pooled frame.
func TestPointExecAllocs(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 2000, 3), 1, 3)
	q, err := ParseQuery("point", "out(a,b,c) :- edge(a,b), edge(b,c), a = 5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Count(ctx)
	if err != nil || n == 0 {
		t.Fatalf("Count = %d, %v; want rows, or the gate measures nothing", n, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Count(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("point Count: %.0f allocs per execution, %d rows", allocs, n)
	if allocs > 2 {
		t.Errorf("a point Count allocates %.1f objects, want <= 2", allocs)
	}
}

// TestApplyAllocsIndependentOfRelationSize gates the O(batch) write path: a
// 64+64-tuple Store.Apply with two attribute orders bound allocates a few
// dozen KiB for the overlay logs and nothing proportional to the relation —
// quadrupling the relation must leave the bytes per batch where they were.
func TestApplyAllocsIndependentOfRelationSize(t *testing.T) {
	bytesPerApply := func(n int) float64 {
		st, next := applyBatchFixture(t, n)
		apply := func(batches int) {
			for i := 0; i < batches; i++ {
				ins, dels := next()
				if err := st.Apply("e", ins, dels); err != nil {
					t.Fatal(err)
				}
			}
		}
		apply(64) // bind the canonical index, fill the churn ring
		const batches = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		apply(batches)
		runtime.ReadMemStats(&after)
		if depth := st.OverlayDepth(); depth == 0 {
			t.Fatalf("n=%d: no pending overlay log after the churn; the fixture is not exercising the log path", n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / batches
	}
	small, large := bytesPerApply(20000), bytesPerApply(80000)
	t.Logf("bytes per Apply: %.0f on 20k tuples, %.0f on 80k", small, large)
	const limit = 256 << 10
	if small >= limit || large >= limit {
		t.Errorf("an Apply allocates %.0f B on 20k tuples and %.0f B on 80k, want < %d each", small, large, limit)
	}
	if large >= 1.25*small {
		t.Errorf("an Apply allocates %.0f B on 80k tuples against %.0f B on 20k: the write path scales with the relation", large, small)
	}
}
