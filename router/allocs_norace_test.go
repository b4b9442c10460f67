//go:build !race

package router_test

import (
	"context"
	"testing"

	"repro"
	"repro/router"
)

// TestRoutedRowsAllocs gates the routed row stream's cost: a Rows merged
// from three served hosts allocates per chunk — on the hosts, on the wire and
// in the merge, whose drained chunks go back to their legs — never per row.
// The race detector changes allocation counts, hence the build tag.
func TestRoutedRowsAllocs(t *testing.T) {
	ctx := context.Background()
	edges := wallEdges(1500, 200)
	var specs []router.HostSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, router.HostSpec{Addr: serveStore(t, edgeStore(t, edges))})
	}
	r, err := router.Open(ctx, specs, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	q, err := r.ParseQuery("hop2", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	n := 0
	stream := func() {
		n = 0
		for range p.Rows(ctx) {
			n++
		}
	}
	stream()
	stream()
	allocs := testing.AllocsPerRun(5, stream)
	limit := float64(n/8 + 200)
	t.Logf("a %d-row routed Rows allocates %.0f objects (limit %.0f)", n, allocs, limit)
	if n < 10000 {
		t.Fatalf("the stream has %d rows, want 10000+", n)
	}
	if allocs > limit {
		t.Errorf("a %d-row routed Rows allocates %.0f objects, want <= %.0f", n, allocs, limit)
	}
}
