package minesweeper

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

// goldenQueries is the paper's suite without its three widest queries
// (which only add minutes) plus three extended queries, so the pushdown
// seeds, the residual path and the projected-prefix frontier advance are
// inside the pinned behaviour too.
func goldenQueries() []*query.Query {
	return append([]*query.Query{
		query.Clique(3), query.Clique(4), query.Cycle(4), query.Path(3),
		query.Tree(1), query.Comb(), query.Lollipop(2)},
		mustParse("band", "out(a,b,c) :- edge(a,b), edge(b,c), a >= 2, a < 9"),
		mustParse("resid", "out(a,b,c) :- edge(a,b), edge(b,c), a != c"),
		mustParse("proj", "out(a,b) :- edge(a,b), edge(b,c), fwd(c,d)"),
	)
}

// goldenRun executes every golden query in count and in enumerate mode on
// five random instances drawn from seed, under the Disable* combination in
// mask (bit 0 memo, 1 skeleton, 2 count memo), and returns the summed
// counters.
func goldenRun(t *testing.T, seed int64, mask int) goldenRow {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sc core.StatsCollector
	opts := Options{
		DisableMemo:      mask&1 != 0,
		DisableSkeleton:  mask&2 != 0,
		DisableCountMemo: mask&4 != 0,
	}
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		db := testutil.RandomGraphDB(rng, 5+rng.Intn(8), 8+rng.Intn(22), 1+rng.Intn(3))
		for _, q := range goldenQueries() {
			plan := compile(t, q, db, nil, opts)
			n, err := Run(ctx, plan, plan.Pin(), opts, core.FullRange, &sc, nil)
			if err != nil {
				t.Fatalf("seed %d mask %d %s: %v", seed, mask, q.Name, err)
			}
			var rows int64
			if _, err := Run(ctx, plan, plan.Pin(), opts, core.FullRange, &sc, func([]int64) bool { rows++; return true }); err != nil {
				t.Fatalf("seed %d mask %d %s: %v", seed, mask, q.Name, err)
			}
			if rows != n {
				t.Fatalf("seed %d mask %d %s: Count = %d, Enumerate yields %d rows", seed, mask, q.Name, n, rows)
			}
		}
	}
	s := sc.Snapshot()
	return goldenRow{s.Probes, s.ProbeMemoHits, s.Constraints, s.FreeTupleSteps, s.Outputs, s.ReuseHits, s.MemoStores}
}

// goldenRow is the Minesweeper block of core.Stats, in the table's order.
type goldenRow struct {
	Probes, ProbeMemoHits, Constraints, FreeTupleSteps, Outputs, ReuseHits, MemoStores int64
}

// goldenStats holds goldenRun's counters as the pointer-based CDS produced
// them, recorded at the commit before the flat-arena rewrite: the rewrite is
// a change of representation only, so every probe, constraint, free-tuple
// step, reuse and memo store must repeat exactly, under every ablation. The
// rows are unchanged since Idea 6 (complete nodes) was deleted: every row
// with it disabled had equalled the row with it on. FreeTupleSteps alone was
// re-recorded when ComputeFreeTuple began resuming at its watermark instead
// of restarting at the root; every other field repeated exactly. The old
// column divided by the new one, over masks 0–7: seed 11 1.91–2.40
// (2.17 unablated), seed 23 1.97–2.56 (2.29), seed 47 1.84–2.32 (2.11).
// Masks 0–3 (count memo on) were re-recorded when leaf messages replaced the
// last column's free tuples; masks 4–7 and every Outputs cell repeated.
// Fields: Probes, ProbeMemoHits, Constraints, FreeTupleSteps, Outputs,
// ReuseHits, MemoStores; index = mask.
var goldenStats = map[int64][8]goldenRow{
	11: {
		{20696, 29195, 3777, 21983, 7328, 343, 690},
		{49891, 0, 3777, 21983, 7328, 343, 690},
		{16524, 20907, 3790, 19981, 7328, 343, 668},
		{37431, 0, 3790, 19981, 7328, 343, 668},
		{29868, 37802, 4002, 28258, 7328, 0, 0},
		{67670, 0, 4002, 28258, 7328, 0, 0},
		{23652, 24760, 4420, 25466, 7328, 0, 0},
		{48412, 0, 4420, 25466, 7328, 0, 0},
	},
	23: {
		{33526, 49043, 5279, 33202, 12560, 539, 909},
		{82569, 0, 5279, 33202, 12560, 539, 909},
		{26266, 33524, 5329, 29708, 12560, 539, 885},
		{59790, 0, 5329, 29708, 12560, 539, 885},
		{51938, 68474, 5614, 45210, 12560, 0, 0},
		{120412, 0, 5614, 45210, 12560, 0, 0},
		{39786, 41574, 6164, 39600, 12560, 0, 0},
		{81360, 0, 6164, 39600, 12560, 0, 0},
	},
	47: {
		{22331, 31800, 4564, 24541, 6632, 381, 774},
		{54131, 0, 4564, 24541, 6632, 381, 774},
		{17171, 21678, 4584, 21780, 6632, 381, 738},
		{38849, 0, 4584, 21780, 6632, 381, 738},
		{31158, 38646, 4840, 30632, 6632, 0, 0},
		{69804, 0, 4840, 30632, 6632, 0, 0},
		{23184, 22622, 5338, 26540, 6632, 0, 0},
		{45806, 0, 5338, 26540, 6632, 0, 0},
	},
}

func TestStatsGoldenAcrossAblations(t *testing.T) {
	for _, seed := range []int64{11, 23, 47} {
		want, ok := goldenStats[seed]
		for mask := 0; mask < 8; mask++ {
			got := goldenRun(t, seed, mask)
			if !ok {
				t.Logf("seed %d mask %2d: {%d, %d, %d, %d, %d, %d, %d},", seed, mask,
					got.Probes, got.ProbeMemoHits, got.Constraints, got.FreeTupleSteps, got.Outputs, got.ReuseHits, got.MemoStores)
				continue
			}
			if got != want[mask] {
				t.Errorf("seed %d mask %d: stats = %+v, golden %+v", seed, mask, got, want[mask])
			}
			if got.Outputs != want[0].Outputs {
				t.Errorf("seed %d mask %d: %d outputs, %d without ablation", seed, mask, got.Outputs, want[0].Outputs)
			}
		}
		if !ok {
			t.Errorf("seed %d has no golden row", seed)
		}
	}
}
