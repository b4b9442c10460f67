package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// corpusQueries is the full named-query corpus the CLI and benchmarks use —
// every pattern shape of the paper's §5.1 evaluation.
func corpusQueries() []*Query {
	return []*Query{
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

func sortedRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		return relation.CompareTuples(rows[i], rows[j]) < 0
	})
}

// naiveRows enumerates q with the brute-force oracle (naive.Engine over the
// flat view of every relation) and returns its rows sorted.
func naiveRows(t *testing.T, q *Query, db *core.DB) [][]int64 {
	t.Helper()
	var rows [][]int64
	err := naive.Engine{}.Enumerate(context.Background(), q, db, func(tuple []int64) bool {
		rows = append(rows, append([]int64(nil), tuple...))
		return true
	})
	if err != nil {
		t.Fatalf("naive enumerate %s: %v", q.Name, err)
	}
	sortedRows(rows)
	return rows
}

// TestBackendDifferential runs every corpus query under both trie-driven
// engines, sequentially and on four workers, and requires counts and sorted
// rows identical to the brute-force oracle's (naive.Engine, which reads the
// flat rows) — the trie index must reproduce the flat reference exactly.
func TestBackendDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(HolmeKim, 250, 900, 3)
	g.SetSelectivity(25, 5)
	for _, q := range corpusQueries() {
		want := naiveRows(t, q, g.DB())
		for _, alg := range []Algorithm{LFTJ, MS} {
			t.Run(fmt.Sprintf("%s/%s", q.Name, string(alg)), func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					p, err := g.Prepare(q, Options{Algorithm: alg, Workers: workers})
					if err != nil {
						t.Fatalf("Workers=%d prepare: %v", workers, err)
					}
					n, err := p.Count(ctx)
					if err != nil {
						t.Fatalf("Workers=%d count: %v", workers, err)
					}
					if n != int64(len(want)) {
						t.Fatalf("Workers=%d count %d, naive %d", workers, n, len(want))
					}
					rows := collectRows(t, p)
					sortedRows(rows)
					requireSameRows(t, fmt.Sprintf("Workers=%d", workers), rows, want)
				}
			})
		}
	}
}

// TestBackendParallelDifferential checks the partitioned §4.10 count path
// against the sequential answer, on both cyclic and acyclic shapes; the
// cyclic ones run the paper's default of 8 jobs per worker.
func TestBackendParallelDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 2000, 10000, 11)
	g.SetSelectivity(10, 3)
	for _, q := range []*Query{Triangles(), Cliques(4), Paths(3)} {
		want, err := Count(ctx, g, q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			got, err := Count(ctx, g, q, Options{Algorithm: alg, Workers: 4})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", q.Name, alg, err)
			}
			if got != want {
				t.Errorf("%s/%s parallel count = %d, want %d", q.Name, alg, got, want)
			}
		}
	}
}

// TestViewBackendDifferential maintains views through a long randomized
// ApplyEdges churn and requires, after every batch, the maintained count to
// equal the brute-force oracle's count over the flat rows. The batches land
// in the cached indexes' delta overlays, so this drives the overlay merge
// paths (cursor, probe, compaction) through the whole engine stack.
func TestViewBackendDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1234))
	for _, q := range []*Query{Triangles(), Cliques(4), Paths(3), Cycles(4)} {
		edges := make([][2]int64, 0, 300)
		for i := 0; i < 300; i++ {
			u, v := int64(rng.Intn(40)), int64(rng.Intn(40))
			if u != v {
				edges = append(edges, [2]int64{u, v})
			}
		}
		g := NewGraph(edges)
		v, err := incremental.NewGraphView(ctx, q, g.DB())
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
			want, err := naive.Engine{}.Count(ctx, q, g.DB())
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
	g := GenerateGraph(BarabasiAlbert, 300, 1200, 7)
	v, err := incremental.NewGraphView(ctx, Triangles(), g.DB())
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
