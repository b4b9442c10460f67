package repro

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
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

// naiveRows enumerates q with the brute-force oracle (naive.Enumerate over the
// flat view of every relation) and returns its rows sorted.
func naiveRows(t *testing.T, q *Query, db *core.DB) [][]int64 {
	t.Helper()
	var rows [][]int64
	err := naive.Enumerate(context.Background(), q, db, func(tuple []int64) bool {
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
// rows identical to the brute-force oracle's (naive.Enumerate, which reads the
// flat rows) — the trie index must reproduce the flat reference exactly.
func TestBackendDifferential(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 250, 900, 3), 25, 5)
	for _, q := range corpusQueries() {
		want := naiveRows(t, q, s.DB())
		for _, alg := range []Algorithm{LFTJ, MS} {
			t.Run(fmt.Sprintf("%s/%s", q.Name, string(alg)), func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					p, err := s.Prepare(q, Options{Algorithm: alg, Workers: workers})
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
	s := graphStore(t, dataset.Generate(dataset.BarabasiAlbert, 2000, 10000, 11), 10, 3)
	for _, q := range []*Query{Triangles(), Cliques(4), Paths(3)} {
		want, err := s.Count(ctx, q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			got, err := s.Count(ctx, q, Options{Algorithm: alg, Workers: 4})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", q.Name, alg, err)
			}
			if got != want {
				t.Errorf("%s/%s parallel count = %d, want %d", q.Name, alg, got, want)
			}
		}
	}
}
