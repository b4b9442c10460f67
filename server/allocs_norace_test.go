//go:build !race

package server_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/server"
)

// TestServedRowsAllocSlope gates the served row stream's cost per row: the
// server encodes each row as it is emitted and the client lends rows out of
// one decoded chunk, so a served Rows or Enumerate of the point query
// allocates per chunk, not per row. Measured at two result sizes, the
// allocations may grow by at most one per 32 extra rows. The race detector
// changes allocation counts, hence the build tag.
func TestServedRowsAllocSlope(t *testing.T) {
	ctx := context.Background()
	g := dataset.Generate(dataset.HolmeKim, 2000, 8000, 3)
	st := graphStore(t, g, 1, 3)
	s := dial(t, serve(t, server.NewSingle(st)))

	// The point query's result size from anchor a is the number of 2-hop
	// walks from a; take the largest and one near a fifth of it.
	adj := make(map[int64][]int64)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	walks := func(a int64) int {
		n := 0
		for _, b := range adj[a] {
			n += len(adj[b])
		}
		return n
	}
	var big int64
	for a := range int64(g.N) {
		if walks(a) > walks(big) {
			big = a
		}
	}
	small := big
	for a := range int64(g.N) {
		if d, best := walks(a)-walks(big)/5, walks(small)-walks(big)/5; abs(d) < abs(best) {
			small = a
		}
	}

	prepare := func(a int64) repro.PreparedQuery {
		q, err := s.ParseQuery("point", fmt.Sprintf("out(a,b,c) :- edge(a,b), edge(b,c), a = %d", a))
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Prepare(q, repro.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	ways := []struct {
		name   string
		stream func(p repro.PreparedQuery) int
	}{
		{"Rows", func(p repro.PreparedQuery) int {
			n := 0
			for range p.Rows(ctx) {
				n++
			}
			return n
		}},
		{"Enumerate", func(p repro.PreparedQuery) int {
			n := 0
			if err := p.Enumerate(ctx, func([]int64) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			return n
		}},
	}
	ps := []repro.PreparedQuery{prepare(small), prepare(big)}
	for _, w := range ways {
		var rows [2]int
		var allocs [2]float64
		for i, p := range ps {
			rows[i] = w.stream(p)
			w.stream(p)
			allocs[i] = testing.AllocsPerRun(10, func() { w.stream(p) })
		}
		slope := (allocs[1] - allocs[0]) / float64(rows[1]-rows[0])
		t.Logf("%s: %d rows %.0f allocs, %d rows %.0f allocs: %.4f per row", w.name, rows[0], allocs[0], rows[1], allocs[1], slope)
		if rows[1] < 2000 || rows[1]-rows[0] < 1000 {
			t.Fatalf("%s: result sizes %d and %d, want the larger 2000+ and 1000+ apart", w.name, rows[0], rows[1])
		}
		if slope > 1.0/32 {
			t.Errorf("%s: %.3f allocations per extra row, want <= 1/32", w.name, slope)
		}
	}
}

func abs(x int) int { return max(x, -x) }
