package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestLFTJMemoObservable checks that an LFTJ count reports its subtree-count
// memo on the counters Minesweeper's Idea 8 already feeds: the 3-path has
// memo depths, which Explain names, and reuses counts (ReuseHits and
// MemoStores, and the engine.count span's reuse_hits); triangle and clique4
// have none, and report no reuse.
func TestLFTJMemoObservable(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 1600, 9), 10, 1)
	for _, c := range []struct {
		q    *Query
		memo bool
	}{{query.Path(3), true}, {query.Clique(3), false}, {query.Clique(4), false}} {
		p, err := s.Prepare(c.q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.NewID())
		root := tr.StartSpan(0, "test")
		if _, err := p.Count(trace.NewContext(context.Background(), root)); err != nil {
			t.Fatal(err)
		}
		root.End()
		var spanHits int64
		for _, sp := range tr.Spans() {
			for _, a := range sp.Attrs {
				if sp.Stage == "engine.count" && a.Key == "reuse_hits" {
					spanHits = a.Val
				}
			}
		}
		st, memo := p.Stats(), p.Explain().Memo
		reuse := st.ReuseHits > 0 && st.MemoStores > 0 && len(memo) > 0
		none := st.ReuseHits == 0 && st.MemoStores == 0 && len(memo) == 0
		if c.memo && !reuse || !c.memo && !none {
			t.Errorf("%s: reuse hits %d, memo stores %d, memo depths %v; want reuse %v", c.q.Name, st.ReuseHits, st.MemoStores, memo, c.memo)
		}
		if spanHits != st.ReuseHits {
			t.Errorf("%s: engine.count span reuse_hits %d, stats %d", c.q.Name, spanHits, st.ReuseHits)
		}
		t.Logf("%s: memo %v, %d hits, %d stores", c.q.Name, memo, st.ReuseHits, st.MemoStores)
	}
}

// TestLFTJMemoCountsOneJob checks that a count with memo depths is not split
// into §4.10 jobs, each of which would store the same subtree counts again:
// the 3-path on four workers makes the seeks and memo stores of one worker.
func TestLFTJMemoCountsOneJob(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 1600, 9), 10, 1)
	var stats [2]ExecStats
	for i, w := range []int{1, 4} {
		p, err := s.Prepare(query.Path(3), Options{Algorithm: LFTJ, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Count(context.Background()); err != nil {
			t.Fatal(err)
		}
		stats[i] = p.Stats()
	}
	one, four := stats[0], stats[1]
	if one.MemoStores == 0 || four.MemoStores != one.MemoStores || four.Seeks != one.Seeks {
		t.Errorf("memo stores %d on one worker, %d on four; seeks %d, %d", one.MemoStores, four.MemoStores, one.Seeks, four.Seeks)
	}
}

// FuzzCountMemo is the property over LFTJ's count memo and every other
// count path: for a random query (testutil.RandomQuery: paths, trees, combs,
// lollipops, cycles and cliques, with bounds, residuals, projections and
// count aggregates) on a random graph, LFTJ's Count and Minesweeper's equal
// the brute-force oracle's, on one worker and on four, summed over the parts
// of a three-way Shard, and on a store whose relations hold live overlay
// logs. Its seed corpus runs as a test.
func FuzzCountMemo(f *testing.F) {
	for seed := int64(0); seed < 150; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := &dataset.Graph{N: 6 + rng.Intn(20)}
		g.Edges = testutil.RandomGraph(rng, g.N, 2*g.N+rng.Intn(3*g.N))
		pristine := graphStore(t, g, 2, seed)
		logged := graphStore(t, g, 2, seed)
		if err := applyEdges(logged, testutil.RandomGraph(rng, g.N, 2), g.Edges[:2]); err != nil {
			t.Fatal(err)
		}
		if logged.OverlayDepth() == 0 {
			t.Fatal("the logged store holds no live log")
		}
		src := testutil.RandomQuery(rng, rng.Intn(2) == 0)
		q, err := query.Parse("random", src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, s := range []*Store{pristine, logged} {
			want := int64(len(referenceEval(t, s, q)))
			for _, alg := range []Algorithm{LFTJ, MS} {
				count := func(opts Options) int64 {
					opts.Algorithm = alg
					p, err := s.Prepare(q, opts)
					if err != nil {
						t.Fatalf("%s %s: %v", alg, src, err)
					}
					n, err := p.Count(context.Background())
					if err != nil {
						t.Fatalf("%s %s: %v", alg, src, err)
					}
					return n
				}
				for _, workers := range []int{1, 4} {
					if got := count(Options{Workers: workers}); got != want {
						t.Errorf("%s %s on %d workers: count %d, oracle %d", alg, src, workers, got, want)
					}
				}
				if len(q.Aggs) > 0 && len(q.Out()) == 0 {
					continue // each part reports a partial of the key-less aggregate
				}
				var sum int64
				for part := uint64(0); part < 3; part++ {
					sum += count(Options{Workers: 1, Shard: &Shard{Part: part, Of: 3}})
				}
				if sum != want {
					t.Errorf("%s %s: parts sum to %d, oracle %d", alg, src, sum, want)
				}
			}
		}
	})
}
