package lftj

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

func BenchmarkTriangleCount(b *testing.B) { benchmarkCount(b, query.Clique(3)) }

func BenchmarkFourCliqueCount(b *testing.B) { benchmarkCount(b, query.Clique(4)) }

// benchmarkCount times Count of q on a seeded random graph and reports the
// seeks per execution beside ns/op: a counted proxy of the work that no
// clock noise moves.
func benchmarkCount(b *testing.B, q *query.Query) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 2000, 12000, 1)
	plan := compile(b, q, db, nil)
	ctx := context.Background()
	var sc core.StatsCollector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, plan, plan.Pin(), core.FullRange, &sc, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sc.Snapshot().Seeks)/float64(b.N), "seeks/op")
}

// BenchmarkRangeCount times the range2hop Count, whose last variable one
// atom binds: every prefix's leaf level is counted as a span
// (frame.countLeaf), not walked.
func BenchmarkRangeCount(b *testing.B) {
	benchmarkCount(b, mustParse("range2hop", "out(a,b,c) :- edge(a,b), edge(b,c), a >= 100, a < 1100"))
}
