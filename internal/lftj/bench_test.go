package lftj

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

func BenchmarkTriangleCount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 2000, 12000, 1)
	q := query.Clique(3)
	eng := Engine{Opts: Options{Plan: compile(b, q, db, nil)}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Count(ctx, q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFourCliqueCount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := testutil.RandomGraphDB(rng, 2000, 12000, 1)
	q := query.Clique(4)
	eng := Engine{Opts: Options{Plan: compile(b, q, db, nil)}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Count(ctx, q, db); err != nil {
			b.Fatal(err)
		}
	}
}
