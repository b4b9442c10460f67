package minesweeper

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

func BenchmarkInsertInterval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	c := newCDS(1)
	for i := 0; i < b.N; i++ {
		c.reset(1)
		for j := 0; j < 1000; j++ {
			l := int64(rng.Intn(100_000))
			c.insertInterval(rootID, l, l+int64(rng.Intn(50)))
		}
	}
}

func BenchmarkNodeNext(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := newCDS(1)
	for j := 0; j < 1000; j++ {
		l := int64(rng.Intn(100_000))
		c.insertInterval(rootID, l, l+int64(rng.Intn(50)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.next(rootID, int64(i%100_000))
	}
}

func BenchmarkTriangleCount(b *testing.B) { benchmarkCount(b, query.Clique(3), 3, 1) }

func BenchmarkPathCountWithReuse(b *testing.B) { benchmarkCount(b, query.Path(3), 4, 5) }

// benchmarkCount times Count of q on a random graph drawn from seed, with
// samples at the given selectivity, and reports the probes per execution
// beside ns/op: a counted proxy of the work that no clock noise moves.
func benchmarkCount(b *testing.B, q *query.Query, seed int64, selectivity int) {
	rng := rand.New(rand.NewSource(seed))
	db := testutil.RandomGraphDB(rng, 2000, 12000, selectivity)
	plan := compile(b, q, db, nil, Options{})
	ctx := context.Background()
	var sc core.StatsCollector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, plan, plan.Pin(), Options{}, core.FullRange, &sc, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sc.Snapshot().Probes)/float64(b.N), "probes/op")
}
