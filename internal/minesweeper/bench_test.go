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
	c := NewCDS(1)
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
	c := NewCDS(1)
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

func BenchmarkTriangleCount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 2000, 12000, 1)
	q := query.Clique(3)
	plan := compile(b, q, db, nil, Options{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, plan, plan.Pin(), Options{}, core.FullRange, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathCountWithReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	db := testutil.RandomGraphDB(rng, 2000, 12000, 5)
	q := query.Path(3)
	plan := compile(b, q, db, nil, Options{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, plan, plan.Pin(), Options{}, core.FullRange, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
