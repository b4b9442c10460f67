package engine

import (
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

// BenchmarkCompile measures a plan-cache miss: Compile on a fresh database,
// so every iteration chooses the order, decides β-acyclicity and (for
// Minesweeper) the skeleton, and binds the indexes. The queries are the 7-
// and 9-variable path and cycle, the widest the planner's exhaustive order
// searches take.
func BenchmarkCompile(b *testing.B) {
	samples := map[string][]int64{query.Sample1: {0}, query.Sample2: {3}}
	for _, q := range []*query.Query{query.Path(6), query.Path(8), query.Cycle(7), query.Cycle(9)} {
		for _, alg := range []Algorithm{LFTJ, MS} {
			b.Run(q.Name+"/"+string(alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := testutil.GraphDB(testutil.K4, samples)
					b.StartTimer()
					if _, err := Compile(Options{Algorithm: alg}, q, db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
