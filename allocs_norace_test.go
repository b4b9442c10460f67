//go:build !race

package repro

import (
	"context"
	"testing"
)

// TestRowsChunkedAllocs gates the cost of owning rows: a Rows stream hands
// every result to the consumer for keeps, yet allocates once per chunk of up
// to 256 rows, not once per row. The race detector changes allocation
// counts, hence the build tag.
func TestRowsChunkedAllocs(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(HolmeKim, 400, 2000, 3)
	for _, alg := range []Algorithm{LFTJ, MS} {
		p, err := g.Prepare(Triangles(), Options{Algorithm: alg, Workers: 1})
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
