package incremental

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestViewBackendDifferential maintains views through a long randomized
// ApplyEdges churn and requires, after every batch, the maintained count to
// equal the brute-force oracle's count over the flat rows. The batches land
// in the cached indexes' delta overlays, so this drives the overlay merge
// paths (cursor, probe, compaction) through the whole engine stack.
func TestViewBackendDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1234))
	for _, q := range []*query.Query{query.Clique(3), query.Clique(4), query.Path(3), query.Cycle(4)} {
		db := dataset.DB(dataset.FromEdges(testutil.RandomGraph(rng, 40, 300)), 1, 0)
		v, err := NewEdgeView(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 15; step++ {
			var ins, del [][2]int64
			for k := 0; k < 1+rng.Intn(4); k++ {
				e := [2]int64{int64(rng.Intn(40)), int64(rng.Intn(40))}
				if e[0] == e[1] {
					continue
				}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
				} else {
					del = append(del, e)
				}
			}
			if err := v.ApplyEdges(ctx, ins, del); err != nil {
				t.Fatalf("%s step %d: %v", q.Name, step, err)
			}
			want, err := naive.Engine{}.Count(ctx, q, db)
			if err != nil {
				t.Fatal(err)
			}
			if v.Count() != want {
				t.Fatalf("%s step %d: view = %d, naive = %d (ins=%v del=%v)",
					q.Name, step, v.Count(), want, ins, del)
			}
		}
	}
}

// TestViewPlanReuseOnCSR pins the overlay payoff: across many batches the
// view derives its GAO once and never re-binds a base-relation index — only
// the tiny delta atoms re-bind.
func TestViewPlanReuseOnCSR(t *testing.T) {
	ctx := context.Background()
	db := dataset.DB(dataset.Generate(dataset.BarabasiAlbert, 300, 1200, 7), 1, 7)
	v, err := NewEdgeView(ctx, query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	afterBuild := v.Stats().IndexBindings
	for i := 0; i < 5; i++ {
		if err := v.ApplyEdges(ctx, [][2]int64{{int64(i), int64(i + 50)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.GAODerivations != 1 {
		t.Errorf("GAODerivations = %d, want 1", st.GAODerivations)
	}
	// Each batch re-binds only @delta atoms (the triangle view's delta terms
	// bind at most 3 delta atoms per term); base relations must not re-bind,
	// which would show up as hundreds of bindings on this query set.
	perBatch := float64(st.IndexBindings-afterBuild) / 5
	if perBatch > 24 {
		t.Errorf("IndexBindings per batch = %.1f — base relations appear to re-bind", perBatch)
	}
}

// BenchmarkViewMaintenance is pure view upkeep: one small ApplyEdges batch
// per iteration. The batch lands in the cached indexes' delta overlays
// instead of forcing an O(arity·n) trie rebuild.
func BenchmarkViewMaintenance(b *testing.B) {
	ctx := context.Background()
	db := dataset.DB(dataset.Generate(dataset.BarabasiAlbert, 3000, 15000, 42), 1, 42)
	v, err := NewEdgeView(ctx, query.Clique(3), db)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int64(i % 2999)
		if err := v.ApplyEdges(ctx, [][2]int64{{u, u + 1}}, [][2]int64{{u + 1, u + 2}}); err != nil {
			b.Fatal(err)
		}
	}
}

// churn yields 64+64-edge batches over n vertices: batch i inserts 64 random
// edges and deletes the 64 that batch i-1 inserted.
func churn(n int) func() (ins, del [][2]int64) {
	rng := rand.New(rand.NewSource(5))
	var prev [][2]int64
	return func() (ins, del [][2]int64) {
		for len(ins) < 64 {
			if u, v := int64(rng.Intn(n)), int64(rng.Intn(n)); u != v {
				ins = append(ins, [2]int64{u, v})
			}
		}
		del, prev = prev, ins
		return ins, del
	}
}

var countSink int64

// BenchmarkViewMaintainAndServe is the rule that keeps this package: the
// same 64+64-edge batches on the same graph (Barabási–Albert, 3000 nodes,
// 15000 edges), each followed by five triangle counts, served by the view
// ("view") or by re-counting through a prepared handle that follows the
// writes ("recount", the batches landing as one Store.ApplyAll over edge and
// fwd). The view stays while it beats re-counting by 5× or more.
func BenchmarkViewMaintainAndServe(b *testing.B) {
	ctx := context.Background()
	g := dataset.Generate(dataset.BarabasiAlbert, 3000, 15000, 42)
	b.Run("view", func(b *testing.B) {
		v, err := NewEdgeView(ctx, query.Clique(3), dataset.DB(g, 1, 42))
		if err != nil {
			b.Fatal(err)
		}
		next := churn(g.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ins, del := next()
			if err := v.ApplyEdges(ctx, ins, del); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				countSink += v.Count()
			}
		}
	})
	b.Run("recount", func(b *testing.B) {
		st := repro.NewStore()
		if err := dataset.Load(st, g, 1, 42); err != nil {
			b.Fatal(err)
		}
		p, err := st.Prepare(repro.Triangles(), repro.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		next := churn(g.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ins, del := next()
			batch := map[string][]repro.Delta{}
			for _, side := range []struct {
				edges [][2]int64
				del   bool
			}{{ins, false}, {del, true}} {
				for _, e := range side.edges {
					u, v := min(e[0], e[1]), max(e[0], e[1])
					batch[query.Edge] = append(batch[query.Edge], repro.Delta{Tuple: []int64{u, v}, Delete: side.del}, repro.Delta{Tuple: []int64{v, u}, Delete: side.del})
					batch[query.Fwd] = append(batch[query.Fwd], repro.Delta{Tuple: []int64{u, v}, Delete: side.del})
				}
			}
			if err := st.ApplyAll(batch); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				n, err := p.Count(ctx)
				if err != nil {
					b.Fatal(err)
				}
				countSink += n
			}
		}
	})
}

func TestTriangleViewInsert(t *testing.T) {
	ctx := context.Background()
	// Path 0-1-2: no triangles; inserting 0-2 closes one.
	db := testutil.GraphDB([][2]int64{{0, 1}, {1, 2}}, nil)
	v, err := NewEdgeView(ctx, query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Fatalf("initial count = %d, want 0", v.Count())
	}
	if err := v.ApplyEdges(ctx, [][2]int64{{0, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 1 {
		t.Errorf("after closing the triangle: count = %d, want 1", v.Count())
	}
	if err := v.ApplyEdges(ctx, nil, [][2]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Errorf("after removing an edge: count = %d, want 0", v.Count())
	}
}

func TestDuplicateAndMissingUpdatesIgnored(t *testing.T) {
	ctx := context.Background()
	db := testutil.GraphDB(testutil.K4, nil)
	v, err := NewEdgeView(ctx, query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	base := v.Count()
	// Re-inserting an existing edge and deleting a non-edge are no-ops.
	if err := v.ApplyEdges(ctx, [][2]int64{{0, 1}}, [][2]int64{{0, 9}}); err != nil {
		t.Fatal(err)
	}
	if v.Count() != base {
		t.Errorf("no-op update changed count: %d -> %d", base, v.Count())
	}
}

// TestRandomChurn applies random edge insertions/deletions and checks the
// maintained count against a full recount after every batch, across query
// shapes (including multi-occurrence self-joins, the inclusion-exclusion
// stress case).
func TestRandomChurn(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Path(3), query.Comb(), query.Cycle(4)}
	for _, q := range queries {
		db := testutil.RandomGraphDB(rng, 12, 30, 2)
		v, err := NewEdgeView(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			var ins, del [][2]int64
			for k := 0; k < 1+rng.Intn(3); k++ {
				e := [2]int64{int64(rng.Intn(12)), int64(rng.Intn(12))}
				if e[0] == e[1] {
					continue
				}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
				} else {
					del = append(del, e)
				}
			}
			if err := v.ApplyEdges(ctx, ins, del); err != nil {
				t.Fatal(err)
			}
			want, err := v.Recount(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if v.Count() != want {
				t.Fatalf("%s step %d: maintained = %d, recount = %d (ins=%v del=%v)",
					q.Name, step, v.Count(), want, ins, del)
			}
		}
	}
}

func TestUnreferencedRelation(t *testing.T) {
	ctx := context.Background()
	db := testutil.GraphDB(testutil.K4, map[string][]int64{query.Sample1: {0}})
	v, err := NewView(ctx, query.Clique(3), db) // uses fwd only
	if err != nil {
		t.Fatal(err)
	}
	base := v.Count()
	// Updating v1 (not referenced by the clique query) must not change the
	// count but must update the relation.
	if err := v.UpdateRelation(ctx, query.Sample1, [][]int64{{3}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Count() != base {
		t.Errorf("count changed on unreferenced update")
	}
	r, err := db.Relation(query.Sample1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("v1 size = %d, want 2", r.Len())
	}
}

func TestViewValidation(t *testing.T) {
	ctx := context.Background()
	db := testutil.GraphDB(testutil.K4, nil)
	if _, err := NewView(ctx, query.New("empty"), db); err == nil {
		t.Error("empty query should fail")
	}
}
