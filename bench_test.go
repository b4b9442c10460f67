// Benchmarks of the serving API on fixed representative workloads (small
// synthetic stand-ins so `go test -bench=.` completes quickly): prepared
// reuse, tracing, writes, batches, pushdown and §4.10 parallelism. The
// paper's Tables 1–7 and Figures 3–7 are benchmarked in internal/bench,
// beside the baseline engines they compare.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/trace"
)

var benchStores = map[string]*Store{}

// benchGraph loads a generated graph (seed 42) with its samples drawn at
// selectivity sel (seed 7); cached per shape.
func benchGraph(b *testing.B, model dataset.Model, nodes, edges int, sel int) *Store {
	b.Helper()
	key := fmt.Sprintf("%v-%d-%d-%d", model, nodes, edges, sel)
	if s, ok := benchStores[key]; ok {
		return s
	}
	s := graphStore(b, dataset.Generate(model, nodes, edges, 42), sel, 7)
	benchStores[key] = s
	return s
}

func benchCount(b *testing.B, s *Store, q *Query, opts Options) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Count(ctx, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedReuse is the prepared-API acceptance benchmark: the
// point-query serving regime (small per-execution work, heavy repetition —
// the paper's LogicBlox setting) where compiling once and executing many
// times beats re-entering the per-call pipeline on every request.
func BenchmarkPreparedReuse(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.ErdosRenyi, 100, 300, 10)
	setSamples(b, g, []int64{2, 3, 5}, []int64{7, 11, 13})
	q := Paths(3)
	opts := Options{Algorithm: "lftj", Workers: 1}
	b.Run("percall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Count(ctx, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p, err := g.Prepare(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracingOverhead pins the disabled-tracing cost on the prepared
// hot path: "untraced" runs the exact serving loop of
// BenchmarkPreparedReuse/prepared (the engine-span hook reduced to one
// context lookup and a nil check) and must stay within noise of it;
// "traced" prices the enabled path (span allocation, stats delta, buffer
// append) for comparison.
func BenchmarkTracingOverhead(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.ErdosRenyi, 100, 300, 10)
	setSamples(b, g, []int64{2, 3, 5}, []int64{7, 11, 13})
	p, err := g.Prepare(Paths(3), Options{Algorithm: "lftj", Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := trace.New(trace.NewID())
		root := tr.StartSpan(0, "bench")
		tctx := trace.NewContext(ctx, root)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(tctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// applyBatchFixture builds, in memory, the write shape of the committed
// benchmark's durable_churn workload: a binary relation of n tuples with two
// attribute orders bound by a prepared query, and a churn of 64-insert +
// 64-delete batches over a ring of 16 slots — each batch deletes what the
// previous round wrote to its slot, so inserts are always new, deletes
// always present, and the overlay logs sit at a steady ~1k tuples.
func applyBatchFixture(tb testing.TB, n int) (st *Store, next func() (ins, dels [][]int64)) {
	tb.Helper()
	const ring, size = 16, 64
	st = NewStore()
	if err := st.DefineRelation("e", 2); err != nil {
		tb.Fatal(err)
	}
	side := int64(1)
	for side*side < int64(n) {
		side++
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i) / side, int64(i) % side}
	}
	if err := st.Load("e", rows); err != nil {
		tb.Fatal(err)
	}
	q, err := st.ParseQuery("both_orders", "e(a, b), e(c, b)")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Prepare(q, Options{Workers: 1}); err != nil {
		tb.Fatal(err)
	}
	var slots [ring][2][][]int64
	for s := range slots {
		for b := range slots[s] {
			for i := 0; i < size; i++ {
				slots[s][b] = append(slots[s][b], []int64{side + int64(s), 0})
			}
		}
	}
	calls := 0
	next = func() (ins, dels [][]int64) {
		slot, round := calls%ring, calls/ring
		calls++
		ins = slots[slot][round%2]
		for i := range ins {
			ins[i][1] = int64(round*size+i) % (2 * side)
		}
		if round > 0 {
			dels = slots[slot][(round-1)%2]
		}
		return ins, dels
	}
	return st, next
}

// BenchmarkApplyBatch is one 64+64-tuple Store.Apply at two relation sizes:
// the write path folds the batch into the small overlay logs and never
// touches the base rows, so time and B/op must not grow with the relation
// (TestApplyAllocsIndependentOfRelationSize gates the bytes).
func BenchmarkApplyBatch(b *testing.B) {
	for _, n := range []int{20000, 80000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st, next := applyBatchFixture(b, n)
			for i := 0; i < 64; i++ { // fill the ring: steady-state logs
				ins, dels := next()
				if err := st.Apply("e", ins, dels); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins, dels := next()
				if err := st.Apply("e", ins, dels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAGMBound measures the fractional-edge-cover LP solve.
func BenchmarkAGMBound(b *testing.B) {
	g := benchGraph(b, dataset.BarabasiAlbert, 1000, 5000, 1)
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Lollipop(3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := g.AGMBound(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelSpeedup contrasts sequential and parallel LFTJ on the
// triangle query (§4.10), at the cyclic default of 8 jobs per worker.
func BenchmarkParallelSpeedup(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 20000, 120000, 1)
	q := Cliques(3)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchCount(b, g, q, Options{Algorithm: "lftj", Workers: w})
		})
	}
}

// BenchmarkStoreBatch is the batched-execution acceptance benchmark: the
// same mixed query workload executed sequentially on one goroutine versus
// through Store.Batch with a worker budget, all against one shared snapshot.
// One batch "op" runs the full request list; batched throughput must be at
// least sequential throughput once two or more workers (and cores) are
// available — on a single-core box the two are expected to land at parity,
// which bounds the batch machinery's overhead.
func BenchmarkStoreBatch(b *testing.B) {
	ctx := context.Background()
	s := benchGraph(b, dataset.HolmeKim, 250, 900, 25)
	var reqs []BatchRequest
	for _, q := range corpusQueries() {
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, BatchRequest{Prepared: p})
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := r.Prepared.Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("batch%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			// The batch's worker budget is GOMAXPROCS.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			for i := 0; i < b.N; i++ {
				results, err := s.Batch(ctx, reqs)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkPushdown measures the tentpole payoff of constant pushdown: a
// highly selective constant atom ("edge(K, b), edge(b, c)") executed with
// the constant compiled into the trie cursors' seek bounds, against the
// same logical query executed as the plain two-hop join with the constant
// checked in the consumer callback. The pushdown variant must win by at
// least 2x — it seeks straight to the K subtree instead of enumerating the
// whole join.
func BenchmarkPushdown(b *testing.B) {
	ctx := context.Background()
	s := benchGraph(b, dataset.BarabasiAlbert, 5000, 40000, 1)
	const k = 137
	pushQ, err := s.ParseQuery("push", fmt.Sprintf("out(b, c) :- edge(%d, b), edge(b, c)", k))
	if err != nil {
		b.Fatal(err)
	}
	push, err := s.Prepare(pushQ, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	plainQ, err := s.ParseQuery("plain", "edge(a, b), edge(b, c)")
	if err != nil {
		b.Fatal(err)
	}
	plain, err := s.Prepare(plainQ, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var wantRows int64
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n int64
			if err := push.Enumerate(ctx, func([]int64) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
			wantRows = n
		}
	})
	b.Run("postfilter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n int64
			if err := plain.Enumerate(ctx, func(t []int64) bool {
				if t[0] == k {
					n++
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
			if wantRows != 0 && n != wantRows {
				b.Fatalf("post-filter saw %d rows, pushdown %d", n, wantRows)
			}
		}
	})
}
