package bench

// Benchmarks mirroring the paper's evaluation artifacts, one per table and
// figure, on fixed representative workloads (small synthetic stand-ins so
// `go test -bench=.` completes quickly). The full parameter sweeps that
// print the paper-shaped tables are the Harness methods behind
// cmd/benchtables; these benchmarks run the same engines through testing.B
// so regressions show up in ns/op and allocs/op.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

var benchDBs = map[string]*core.DB{}

// benchDB generates a graph (seed 42) and its benchmark database, with the
// four node samples drawn at selectivity sel (seed 7); cached per shape.
func benchDB(model dataset.Model, nodes, edges, sel int) *core.DB {
	key := fmt.Sprintf("%v-%d-%d-%d", model, nodes, edges, sel)
	if db, ok := benchDBs[key]; ok {
		return db
	}
	db := dataset.DB(dataset.Generate(model, nodes, edges, 42), sel, 7)
	benchDBs[key] = db
	return db
}

// benchCount prepares q once and times its count.
func benchCount(b *testing.B, db *core.DB, q *query.Query, opts engine.Options) {
	b.Helper()
	ctx := context.Background()
	eng, err := prepare(opts, q, db)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Count(ctx, q, db); err != nil {
			b.Fatal(err)
		}
	}
}

// oneWorker runs one engine on one worker.
func oneWorker(a engine.Algorithm) engine.Options {
	return engine.Options{Algorithm: a, Workers: 1}
}

// BenchmarkTable1_IdeaAblation measures Minesweeper on 3-path with the
// Idea 4 ablation variants (Table 1's speedup numerator and denominator).
func BenchmarkTable1_IdeaAblation(b *testing.B) {
	db := benchDB(dataset.HolmeKim, 5000, 29000, 10)
	q := query.Path(3)
	for _, v := range []struct {
		name string
		ms   minesweeper.Options
	}{
		{"noIdeas", minesweeper.Options{DisableMemo: true, DisableCountMemo: true}},
		{"idea4", minesweeper.Options{DisableCountMemo: true}},
	} {
		b.Run(v.name, func(b *testing.B) { benchCount(b, db, q, msOptions(v.ms, 1)) })
	}
}

// BenchmarkTable2_LowSelectivity is the Table 2 regime: Idea 4 at
// selectivity 10 on 2-comb.
func BenchmarkTable2_LowSelectivity(b *testing.B) {
	db := benchDB(dataset.HolmeKim, 5000, 29000, 10)
	q := query.Comb()
	b.Run("noIdeas", func(b *testing.B) {
		benchCount(b, db, q, msOptions(minesweeper.Options{DisableMemo: true, DisableCountMemo: true}, 1))
	})
	b.Run("idea4", func(b *testing.B) {
		benchCount(b, db, q, msOptions(minesweeper.Options{DisableCountMemo: true}, 1))
	})
}

// BenchmarkTable3_SkeletonAblation measures Idea 7 on the triangle query.
func BenchmarkTable3_SkeletonAblation(b *testing.B) {
	db := benchDB(dataset.ErdosRenyi, 10000, 40000, 1)
	q := query.Clique(3)
	b.Run("noSkeleton", func(b *testing.B) {
		benchCount(b, db, q, msOptions(minesweeper.Options{DisableSkeleton: true}, 1))
	})
	b.Run("skeleton", func(b *testing.B) {
		benchCount(b, db, q, oneWorker(engine.MS))
	})
}

// BenchmarkTable4_GAO measures Minesweeper on 4-path under the best NEO
// order and a non-NEO order (Table 4's contrast).
func BenchmarkTable4_GAO(b *testing.B) {
	db := benchDB(dataset.ErdosRenyi, 5000, 15000, 10)
	q := query.Path(4)
	for _, v := range []struct{ name, gao string }{
		{"neoABCDE", "abcde"},
		{"nonNeoABDCE", "abdce"},
	} {
		b.Run(v.name, func(b *testing.B) {
			benchCount(b, db, q, engine.Options{Algorithm: engine.MS, Workers: 1, GAO: letters(v.gao)})
		})
	}
}

// BenchmarkTable5_Granularity measures parallel Minesweeper on the triangle
// query across the paper's partition granularities.
func BenchmarkTable5_Granularity(b *testing.B) {
	db := benchDB(dataset.HolmeKim, 5000, 29000, 1)
	q := query.Clique(3)
	for _, f := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			benchCount(b, db, q, engine.Options{Algorithm: engine.MS, Granularity: f})
		})
	}
}

// BenchmarkTable6_CyclicEngines measures every engine on the 3-clique query
// (one Table 6 column).
func BenchmarkTable6_CyclicEngines(b *testing.B) {
	db := benchDB(dataset.HolmeKim, 5000, 29000, 1)
	q := query.Clique(3)
	for _, a := range table6Engines {
		b.Run(string(a), func(b *testing.B) { benchCount(b, db, q, oneWorker(a)) })
	}
}

// BenchmarkTable7_AcyclicEngines measures the acyclic-query engines on
// 3-path at selectivity 80 (one Table 7 column).
func BenchmarkTable7_AcyclicEngines(b *testing.B) {
	db := benchDB(dataset.BarabasiAlbert, 5000, 29000, 80)
	q := query.Path(3)
	for _, a := range []engine.Algorithm{engine.LFTJ, engine.MS, Yannakakis, PSQL, MonetDB} {
		b.Run(string(a), func(b *testing.B) { benchCount(b, db, q, oneWorker(a)) })
	}
}

// BenchmarkTable7_Lollipop measures the §4.12 hybrid against its parents on
// 2-lollipop.
func BenchmarkTable7_Lollipop(b *testing.B) {
	db := benchDB(dataset.BarabasiAlbert, 3000, 12000, 10)
	q := query.Lollipop(2)
	for _, a := range []engine.Algorithm{engine.MS, Hybrid} {
		b.Run(string(a), func(b *testing.B) { benchCount(b, db, q, oneWorker(a)) })
	}
}

// BenchmarkFigure3to5_PathSampleScaling measures the 3-path engines at two
// sample sizes (the Figures 3–5 x-axis endpoints).
func BenchmarkFigure3to5_PathSampleScaling(b *testing.B) {
	db := benchDB(dataset.BarabasiAlbert, 20000, 120000, 1)
	for _, n := range []int{10, 300} {
		v1 := make([]int64, n)
		v2 := make([]int64, n)
		for i := 0; i < n; i++ {
			v1[i] = int64(i * 7 % 20000)
			v2[i] = int64(i*13%20000 + 1)
		}
		dataset.ReplaceSamples(db, v1, v2)
		for _, a := range []engine.Algorithm{engine.LFTJ, engine.MS} {
			b.Run(fmt.Sprintf("N=%d/%s", n, a), func(b *testing.B) {
				benchCount(b, db, query.Path(3), oneWorker(a))
			})
		}
	}
}

// BenchmarkFigure6_TriangleEdgeScaling measures 3-clique at two edge scales
// (the Figure 6 x-axis).
func BenchmarkFigure6_TriangleEdgeScaling(b *testing.B) {
	for _, edges := range []int{20000, 80000} {
		db := benchDB(dataset.BarabasiAlbert, 20000, edges, 1)
		for _, a := range []engine.Algorithm{engine.LFTJ, engine.MS, PSQL} {
			b.Run(fmt.Sprintf("E=%d/%s", edges, a), func(b *testing.B) {
				benchCount(b, db, query.Clique(3), oneWorker(a))
			})
		}
	}
}

// BenchmarkFigure7_FourCliqueEdgeScaling measures 4-clique at two edge
// scales (the Figure 7 x-axis).
func BenchmarkFigure7_FourCliqueEdgeScaling(b *testing.B) {
	for _, edges := range []int{20000, 60000} {
		db := benchDB(dataset.BarabasiAlbert, 20000, edges, 1)
		for _, a := range []engine.Algorithm{engine.LFTJ, engine.MS} {
			b.Run(fmt.Sprintf("E=%d/%s", edges, a), func(b *testing.B) {
				benchCount(b, db, query.Clique(4), oneWorker(a))
			})
		}
	}
}

// BenchmarkCountReuse isolates the #Minesweeper-style count-mode subtree
// reuse (Idea 8) on a low-selectivity 4-path — the paper's headline
// Minesweeper advantage.
func BenchmarkCountReuse(b *testing.B) {
	db := benchDB(dataset.BarabasiAlbert, 3000, 15000, 10)
	q := query.Path(4)
	b.Run("withReuse", func(b *testing.B) {
		benchCount(b, db, q, oneWorker(engine.MS))
	})
	b.Run("withoutReuse", func(b *testing.B) {
		benchCount(b, db, q, msOptions(minesweeper.Options{DisableCountMemo: true}, 1))
	})
}

// BenchmarkWCOJImplementations is the implementation ablation: the same
// worst-case-optimal computation via leapfrogging sorted iterators (lftj)
// vs the paper's recursive Algorithm 1 formulation (genericjoin) vs
// Minesweeper's gap-driven search (ms).
func BenchmarkWCOJImplementations(b *testing.B) {
	db := benchDB(dataset.HolmeKim, 5000, 29000, 1)
	q := query.Clique(3)
	for _, a := range []engine.Algorithm{engine.LFTJ, GenericJoin, engine.MS} {
		b.Run(string(a), func(b *testing.B) { benchCount(b, db, q, oneWorker(a)) })
	}
}
