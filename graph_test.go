package repro

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// graphStore loads the benchmark schema of g into a new store: "edge" (both
// directions), "fwd" (u < v), and the samples v1..v4 drawn at selectivity
// sel from sampleSeed (selectivity 1 samples every vertex).
func graphStore(tb testing.TB, g *dataset.Graph, sel int, sampleSeed int64) *Store {
	tb.Helper()
	st := NewStore()
	if err := dataset.Load(st, g, sel, sampleSeed); err != nil {
		tb.Fatal(err)
	}
	return st
}

// edgeStore is graphStore over an undirected edge list, each edge u < v
// and listed once, every vertex sampled.
func edgeStore(tb testing.TB, edges [][2]int64) *Store {
	tb.Helper()
	g := &dataset.Graph{Edges: edges}
	for _, e := range edges {
		g.N = max(g.N, int(e[1])+1)
	}
	return graphStore(tb, g, 1, 0)
}

// k4 is the complete graph on four vertices.
func k4(tb testing.TB) *Store {
	tb.Helper()
	return edgeStore(tb, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

// applyEdges inserts and removes undirected edges as one atomic write that
// keeps the benchmark schema's invariants: both directions land in "edge"
// and the u < v orientation in "fwd". Self-loops are dropped; an edge on
// both sides of one batch resolves as delete-after-insert.
func applyEdges(st *Store, insert, remove [][2]int64) error {
	batches := map[string][]Delta{}
	add := func(edges [][2]int64, del bool) {
		for _, e := range edges {
			u, v := min(e[0], e[1]), max(e[0], e[1])
			if u == v {
				continue
			}
			batches[query.Edge] = append(batches[query.Edge], Delta{Tuple: []int64{u, v}, Delete: del}, Delta{Tuple: []int64{v, u}, Delete: del})
			batches[query.Fwd] = append(batches[query.Fwd], Delta{Tuple: []int64{u, v}, Delete: del})
		}
	}
	add(insert, false)
	add(remove, true)
	return st.ApplyAll(batches)
}

// setSamples replaces the v1 and v2 samples.
func setSamples(tb testing.TB, st *Store, v1, v2 []int64) {
	tb.Helper()
	for name, vals := range map[string][]int64{query.Sample1: v1, query.Sample2: v2} {
		tuples := make([][]int64, len(vals))
		for i, v := range vals {
			tuples[i] = []int64{v}
		}
		if err := st.Load(name, tuples); err != nil {
			tb.Fatal(err)
		}
	}
}
