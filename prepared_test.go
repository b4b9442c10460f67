package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestPrepareExecuteCompilesOnce is the headline contract of the prepared
// API: preparing a §5.1 benchmark query once and executing it N times
// performs GAO derivation and index binding exactly once, at Prepare time.
func TestPrepareExecuteCompilesOnce(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 300, 1200, 6), 5, 2)
	for _, alg := range []Algorithm{LFTJ, MS} {
		q := Paths(3)
		p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		after := p.Stats()
		if after.GAODerivations != 1 || after.PlanCacheMisses != 1 {
			t.Errorf("%s: prepare stats = %+v, want one derivation and one cache miss", alg, after)
		}
		if after.IndexBindings != int64(len(q.Atoms)) {
			t.Errorf("%s: IndexBindings = %d, want %d (one per atom)", alg, after.IndexBindings, len(q.Atoms))
		}
		const runs = 5
		var want int64 = -1
		for i := 0; i < runs; i++ {
			n, err := p.Count(ctx)
			if err != nil {
				t.Fatalf("%s run %d: %v", alg, i, err)
			}
			if want == -1 {
				want = n
			} else if n != want {
				t.Fatalf("%s run %d: count %d != %d", alg, i, n, want)
			}
		}
		st := p.Stats()
		if st.GAODerivations != 1 || st.IndexBindings != int64(len(q.Atoms)) {
			t.Errorf("%s: after %d executions planning counters moved: %+v", alg, runs, st)
		}
		if st.Executions != runs {
			t.Errorf("%s: Executions = %d, want %d", alg, st.Executions, runs)
		}
		if st.Outputs != want*runs {
			t.Errorf("%s: Outputs = %d, want %d", alg, st.Outputs, want*runs)
		}
	}
}

// TestPreparedConcurrentUse shares one handle across goroutines mixing
// Count, Enumerate, and Rows (run with -race to check the synchronization).
// The Minesweeper handle counts with Workers: 4, so pooled execution frames
// are taken and returned by 8 callers and their shard workers at once; every
// execution must reproduce LFTJ's count and row checksum.
func TestPreparedConcurrentUse(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 2000, 3), 1, 3)
	// The engines emit in their own GAO orders: sum a hash of each row.
	checksum := func(sum int64, row []int64) int64 {
		h := int64(17)
		for _, v := range row {
			h = h*1000003 + v
		}
		return sum + h*h
	}
	var want, wantSum int64
	for _, opts := range []Options{{Algorithm: LFTJ}, {Algorithm: MS, Workers: 4}} {
		t.Run(string(opts.Algorithm), func(t *testing.T) {
			p, err := s.Prepare(Triangles(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Algorithm == LFTJ {
				if err := p.Enumerate(ctx, func(row []int64) bool {
					want++
					wantSum = checksum(wantSum, row)
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			const goroutines = 8
			var wg sync.WaitGroup
			errCh := make(chan error, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(mode int) {
					defer wg.Done()
					var got int64
					gotSum := wantSum
					var err error
					switch mode % 3 {
					case 0:
						got, err = p.Count(ctx)
					case 1:
						gotSum = 0
						err = p.Enumerate(ctx, func(row []int64) bool {
							got++
							gotSum = checksum(gotSum, row)
							return true
						})
					default:
						gotSum = 0
						for row := range p.Rows(ctx) {
							got++
							gotSum = checksum(gotSum, row)
						}
					}
					if err != nil {
						errCh <- err
						return
					}
					if got != want || gotSum != wantSum {
						errCh <- fmt.Errorf("mode %d: count %d checksum %d, want %d and %d", mode%3, got, gotSum, want, wantSum)
					}
				}(i)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			runs := int64(goroutines)
			if opts.Algorithm == LFTJ {
				runs++
			}
			if st := p.Stats(); st.Executions != runs {
				t.Errorf("Executions = %d, want %d", st.Executions, runs)
			}
		})
	}
}

// TestPlanCacheInvalidation checks the cache key and invalidation rules:
// re-preparing an unchanged shape hits the cache; replacing a relation the
// plan reads (sample redraw or a direct DB.Add) evicts it; plans over
// untouched relations survive.
func TestPlanCacheInvalidation(t *testing.T) {
	g := dataset.Generate(dataset.ErdosRenyi, 200, 600, 5)
	s := graphStore(t, g, 4, 1)

	pathQ := Paths(3) // reads v1, v2, edge
	triQ := Triangles()

	if _, err := s.Prepare(pathQ, Options{}); err != nil {
		t.Fatal(err)
	}
	p2, err := s.Prepare(pathQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p2.Stats(); st.PlanCacheHits != 1 || st.PlanCacheMisses != 0 {
		t.Errorf("re-prepare stats = %+v, want a pure cache hit", st)
	}

	if _, err := s.Prepare(triQ, Options{}); err != nil { // reads fwd only
		t.Fatal(err)
	}

	// Redrawing samples replaces v1 and v2: the path plan must recompile,
	// the triangle plan must not.
	rng := rand.New(rand.NewSource(99))
	setSamples(t, s, g.Sample(rng, 4), g.Sample(rng, 4))
	p3, err := s.Prepare(pathQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p3.Stats(); st.PlanCacheMisses != 1 {
		t.Errorf("post-invalidation stats = %+v, want a recompile", st)
	}
	p4, err := s.Prepare(triQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p4.Stats(); st.PlanCacheHits != 1 {
		t.Errorf("triangle plan should have survived the sample redraw: %+v", st)
	}

	// A direct relation replacement evicts too.
	fwd, err := s.DB().Relation("fwd")
	if err != nil {
		t.Fatal(err)
	}
	s.DB().Add(fwd) // same data, new registration
	p5, err := s.Prepare(triQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p5.Stats(); st.PlanCacheMisses != 1 {
		t.Errorf("triangle plan should have been evicted by DB.Add: %+v", st)
	}

	// Different algorithm and different GAO are different cache keys.
	pMS, err := s.Prepare(pathQ, Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if st := pMS.Stats(); st.PlanCacheMisses != 1 {
		t.Errorf("ms plan unexpectedly shared the lftj slot: %+v", st)
	}
	gao := append([]string(nil), pathQ.Vars()...)
	gao[0], gao[1] = gao[1], gao[0]
	pGAO, err := s.Prepare(pathQ, Options{GAO: gao})
	if err != nil {
		t.Fatal(err)
	}
	if st := pGAO.Stats(); st.PlanCacheMisses != 1 {
		t.Errorf("explicit-GAO plan unexpectedly shared the default slot: %+v", st)
	}
}

// TestRowsEarlyStop breaks out of the streaming iterator and checks the
// engine stopped with it.
func TestRowsEarlyStop(t *testing.T) {
	ctx := context.Background()
	p, err := k4(t).Prepare(Triangles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	for row := range p.Rows(ctx) {
		rows = append(rows, row)
		if len(rows) == 2 {
			break
		}
	}
	if len(rows) != 2 {
		t.Fatalf("collected %d rows, want 2", len(rows))
	}
	if st := p.Stats(); st.Outputs != 2 {
		t.Errorf("engine emitted %d outputs after early stop, want 2", st.Outputs)
	}
	// Yielded rows are owned copies with bindings in q.Vars() order.
	if len(rows[0]) != 3 {
		t.Errorf("row arity = %d, want 3", len(rows[0]))
	}
	// The handle stays usable after an early stop.
	n, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("count after early stop = %d, want 4", n)
	}
}

// TestRowsAreOwned pins the ownership contract of Rows over the chunked
// copies: a consumer that keeps every row of a long stream and appends to
// each still sees exactly what Enumerate emitted — no later row, and no
// neighbour's append, writes into a row already handed out.
func TestRowsAreOwned(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 300, 1500, 3), 1, 3)
	for _, alg := range []Algorithm{LFTJ, MS} {
		p, err := s.Prepare(Triangles(), Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]int64
		if err := p.Enumerate(ctx, func(row []int64) bool {
			want = append(want, append([]int64(nil), row...))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(want) < 1000 {
			t.Fatalf("%s: only %d rows, the test wants a stream of 1000+", alg, len(want))
		}
		var kept [][]int64
		for row := range p.Rows(ctx) {
			kept = append(kept, row)
		}
		for i := range kept {
			kept[i] = append(kept[i], int64(-i))
		}
		if len(kept) != len(want) {
			t.Fatalf("%s: Rows yields %d rows, Enumerate %d", alg, len(kept), len(want))
		}
		for i, row := range kept {
			if !slices.Equal(row[:len(row)-1], want[i]) || row[len(row)-1] != int64(-i) {
				t.Fatalf("%s: kept row %d = %v, want %v then %d", alg, i, row, want[i], -i)
			}
		}
	}
}

// TestRowsErr surfaces mid-stream failures the plain Rows iterator
// discards.
func TestRowsErr(t *testing.T) {
	p, err := k4(t).Prepare(Triangles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for row, err := range p.RowsErr(context.Background()) {
		if err != nil {
			t.Fatalf("unexpected stream error: %v", err)
		}
		if len(row) != 3 {
			t.Fatalf("row = %v", row)
		}
		rows++
	}
	if rows != 4 {
		t.Errorf("streamed %d rows, want 4", rows)
	}
	// Mid-stream cancellation surfaces as the final error pair when the
	// consumer keeps ranging (a consumer that breaks instead sees no pair).
	big := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 5000, 40000, 8), 1, 8)
	pb, err := big.Prepare(Triangles(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawErr error
	seen := 0
	for _, err := range pb.RowsErr(ctx) {
		if err != nil {
			sawErr = err
			break
		}
		if seen++; seen == 1 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Errorf("stream error = %v, want context.Canceled", sawErr)
	}
}

// TestRowsContextCancel ends the stream when the context dies.
func TestRowsContextCancel(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 5000, 40000, 8), 1, 8)
	p, err := s.Prepare(Triangles(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	for range p.Rows(ctx) {
		if seen++; seen == 1 {
			cancel()
		}
	}
	if ctx.Err() == nil {
		t.Fatal("context should be cancelled")
	}
	total, err := p.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int64(seen) >= total {
		t.Errorf("cancellation did not stop the stream: saw %d of %d", seen, total)
	}
}

// TestExplainBenchmarkQueries checks the Explain surface on the paper's
// §5.1 benchmark queries: a fixed GAO covering every variable, one physical
// index per atom, and a positive AGM bound.
func TestExplainBenchmarkQueries(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 300, 1500, 4), 4, 9)
	queries := []*Query{
		Triangles(), Cliques(4), Cycles(4), Paths(3), Paths(4),
		Trees(1), Trees(2), Comb(), Lollipops(2),
	}
	for _, q := range queries {
		for _, alg := range []Algorithm{LFTJ, MS} {
			p, err := s.Prepare(q, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, alg, err)
			}
			e := p.Explain()
			if len(e.GAO) != q.NumVars() {
				t.Errorf("%s/%s: GAO %v does not cover %d vars", q.Name, alg, e.GAO, q.NumVars())
			}
			if len(e.Atoms) != len(q.Atoms) {
				t.Errorf("%s/%s: %d atom plans for %d atoms", q.Name, alg, len(e.Atoms), len(q.Atoms))
			}
			if e.AGMBound <= 0 {
				t.Errorf("%s/%s: AGM bound = %v", q.Name, alg, e.AGMBound)
			}
			s := e.String()
			if !strings.Contains(s, "gao ") || !strings.Contains(s, "agm bound") {
				t.Errorf("%s/%s: explanation missing sections:\n%s", q.Name, alg, s)
			}
		}
	}
}

// TestPreparedStatsEveryEngine is the unified-stats generalization: both
// engines report executions and output cardinality through the same
// surface. (The baselines' counts are checked in internal/bench.)
func TestPreparedStatsEveryEngine(t *testing.T) {
	ctx := context.Background()
	s := k4(t)
	setSamples(t, s, []int64{0}, []int64{3})
	for _, tc := range []struct {
		alg Algorithm
		q   *Query
	}{
		{"lftj", Triangles()},
		{"ms", Triangles()},
		{"lftj", Paths(3)},
		{"ms", Lollipops(2)},
	} {
		p, err := s.Prepare(tc.q, Options{Algorithm: tc.alg, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.alg, err)
		}
		n, err := p.Count(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.alg, err)
		}
		st := p.Stats()
		if st.Executions != 1 {
			t.Errorf("%s: Executions = %d, want 1", tc.alg, st.Executions)
		}
		if st.Outputs != n {
			t.Errorf("%s: Outputs = %d, count = %d", tc.alg, st.Outputs, n)
		}
	}
}

// TestTypedErrors branches on the failure kinds Prepare reports.
func TestTypedErrors(t *testing.T) {
	g := k4(t)
	q, err := ParseQuery("bad", "nosuch(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Prepare(q, Options{}); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation error = %v, want ErrUnknownRelation", err)
	}
	if _, err := g.Prepare(Triangles(), Options{GAO: []string{"a", "b"}}); !errors.Is(err, ErrUnboundVar) {
		t.Errorf("short GAO error = %v, want ErrUnboundVar", err)
	}
	if _, err := g.Prepare(Triangles(), Options{Algorithm: "ms", GAO: []string{"a", "b", "z"}}); !errors.Is(err, ErrUnboundVar) {
		t.Errorf("wrong-var GAO error = %v, want ErrUnboundVar", err)
	}
}

// TestPreparedSnapshotSemantics: a handle pins the physical design it was
// compiled against; re-preparing after a sample redraw picks up the new
// design.
func TestPreparedSnapshotSemantics(t *testing.T) {
	ctx := context.Background()
	g := graphStore(t, dataset.Generate(dataset.ErdosRenyi, 150, 450, 7), 1, 7)
	setSamples(t, g, []int64{0, 1, 2}, []int64{3, 4, 5})
	p, err := g.Prepare(Paths(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Empty the v1 sample: the pinned handle keeps the old snapshot.
	setSamples(t, g, nil, []int64{3, 4, 5})
	again, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again != before {
		t.Errorf("pinned handle changed result: %d -> %d", before, again)
	}
	p2, err := g.Prepare(Paths(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	now, err := p2.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if now != 0 {
		t.Errorf("fresh handle over empty v1 sample = %d, want 0", now)
	}
}
