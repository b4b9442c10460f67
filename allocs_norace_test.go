//go:build !race

package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// TestRowsChunkedAllocs gates the cost of owning rows: a Rows stream hands
// every result to the consumer for keeps, yet allocates once per chunk of up
// to 256 rows, not once per row. The race detector changes allocation
// counts, hence the build tag.
func TestRowsChunkedAllocs(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 400, 2000, 3), 1, 3)
	for _, alg := range []Algorithm{LFTJ, MS} {
		p, err := s.Prepare(Triangles(), Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		stream := func() {
			n = 0
			for range p.Rows(ctx) {
				n++
			}
		}
		stream()
		stream()
		allocs := testing.AllocsPerRun(10, stream)
		if limit := float64(n/64 + 16); n < 1000 || allocs > limit {
			t.Errorf("%s: a %d-row stream allocates %.1f objects, want <= %.0f (and 1000+ rows)", alg, n, allocs, limit)
		}
	}
}

// TestApplyAllocsIndependentOfRelationSize gates the O(batch) write path: a
// 64+64-tuple Store.Apply with two attribute orders bound allocates a few
// dozen KiB for the overlay logs and nothing proportional to the relation —
// quadrupling the relation must leave the bytes per batch where they were.
func TestApplyAllocsIndependentOfRelationSize(t *testing.T) {
	bytesPerApply := func(n int) float64 {
		st, next := applyBatchFixture(t, n)
		apply := func(batches int) {
			for i := 0; i < batches; i++ {
				ins, dels := next()
				if err := st.Apply("e", ins, dels); err != nil {
					t.Fatal(err)
				}
			}
		}
		apply(64) // bind the canonical index, fill the churn ring
		const batches = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		apply(batches)
		runtime.ReadMemStats(&after)
		if depth := st.OverlayDepth(); depth == 0 {
			t.Fatalf("n=%d: no pending overlay log after the churn; the fixture is not exercising the log path", n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / batches
	}
	small, large := bytesPerApply(20000), bytesPerApply(80000)
	t.Logf("bytes per Apply: %.0f on 20k tuples, %.0f on 80k", small, large)
	const limit = 256 << 10
	if small >= limit || large >= limit {
		t.Errorf("an Apply allocates %.0f B on 20k tuples and %.0f B on 80k, want < %d each", small, large, limit)
	}
	if large >= 1.25*small {
		t.Errorf("an Apply allocates %.0f B on 80k tuples against %.0f B on 20k: the write path scales with the relation", large, small)
	}
}
