// Package testutil provides shared fixtures for engine tests: small graph
// databases in the paper's schema (symmetric edge relation, oriented fwd
// relation, node samples) and random instances for differential testing.
package testutil

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// GraphDB builds a database in the benchmark schema from an undirected edge
// list: relation "edge" holds both orientations, relation "fwd" holds the
// u<v orientation, and each samples entry becomes a unary relation.
func GraphDB(edges [][2]int64, samples map[string][]int64) *core.DB {
	db := core.NewDB()
	eb := relation.NewBuilder(query.Edge, 2)
	fb := relation.NewBuilder(query.Fwd, 2)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		eb.Add(u, v)
		eb.Add(v, u)
		if u < v {
			fb.Add(u, v)
		} else {
			fb.Add(v, u)
		}
	}
	db.Add(eb.Build())
	db.Add(fb.Build())
	for name, vals := range samples {
		sb := relation.NewBuilder(name, 1)
		for _, v := range vals {
			sb.Add(v)
		}
		db.Add(sb.Build())
	}
	return db
}

// RandomGraph returns m random edges over n nodes (self-loops skipped,
// duplicates allowed — relation building dedups).
func RandomGraph(rng *rand.Rand, n, m int) [][2]int64 {
	var edges [][2]int64
	for i := 0; i < m; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u != v {
			edges = append(edges, [2]int64{u, v})
		}
	}
	return edges
}

// RandomSample selects each of 0..n-1 with probability 1/s (the paper's
// selectivity parameter); it never returns an empty sample when n > 0.
func RandomSample(rng *rand.Rand, n int, s int) []int64 {
	var out []int64
	for v := 0; v < n; v++ {
		if rng.Intn(s) == 0 {
			out = append(out, int64(v))
		}
	}
	if len(out) == 0 && n > 0 {
		out = append(out, int64(rng.Intn(n)))
	}
	return out
}

// RandomGraphDB builds a full benchmark-schema database with all four
// samples populated at the given selectivity.
func RandomGraphDB(rng *rand.Rand, n, m, selectivity int) *core.DB {
	return GraphDB(RandomGraph(rng, n, m), map[string][]int64{
		query.Sample1: RandomSample(rng, n, selectivity),
		query.Sample2: RandomSample(rng, n, selectivity),
		query.Sample3: RandomSample(rng, n, selectivity),
		query.Sample4: RandomSample(rng, n, selectivity),
	})
}

// BenchmarkQueries returns the paper's full §5.1 query suite.
func BenchmarkQueries() []*query.Query {
	return []*query.Query{
		query.Clique(3), query.Clique(4), query.Cycle(4),
		query.Path(3), query.Path(4),
		query.Tree(1), query.Tree(2), query.Comb(),
		query.Lollipop(2), query.Lollipop(3),
	}
}

// K4 is the complete graph on vertices 0..3: 3 oriented triangles per
// 3-subset etc.; handy for hand-counted expectations.
var K4 = [][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// RandomQuery returns a random query over the benchmark schema, in Datalog,
// for property tests: a path, tree, comb, lollipop, cycle or clique of edge
// and fwd atoms over variables a, b, ..., each sampled by one of v1..v4 with
// probability 1/4; when ext, maybe with an x >= K bound, an x < y residual,
// and a projection or a count aggregate.
func RandomQuery(rng *rand.Rand, ext bool) string {
	shape, n := rng.Intn(6), 2+rng.Intn(4)
	if shape >= 3 { // lollipops, cycles and cliques close a triangle
		n = max(n, 3)
	}
	x := func(i int) string { return string(rune('a' + i)) }
	var body []string
	link := func(u, v int) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		body = append(body, fmt.Sprintf("%s(%s,%s)", [2]string{query.Edge, query.Fwd}[rng.Intn(2)], x(u), x(v)))
	}
	for v := 1; v < n; v++ {
		switch shape {
		case 1: // tree: each variable hangs off an earlier one
			link(rng.Intn(v), v)
		case 2: // comb: the even variables form a spine, each odd one a tooth
			link(v-2+v%2, v)
		case 5: // clique
			for u := 0; u < v; u++ {
				link(u, v)
			}
		default: // a path, alone or closed below
			link(v-1, v)
		}
	}
	if shape == 3 { // lollipop: the path ends in a triangle
		link(n-3, n-1)
	} else if shape == 4 { // cycle
		link(n-1, 0)
	}
	for v := 0; v < n; v++ {
		if rng.Intn(4) == 0 {
			body = append(body, fmt.Sprintf("v%d(%s)", 1+rng.Intn(4), x(v)))
		}
	}
	u, v := x(rng.Intn(n)), x(rng.Intn(n))
	if ext && rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("%s >= %d", u, rng.Intn(20)))
	}
	if ext && u != v && rng.Intn(2) == 0 {
		body = append(body, u+" < "+v)
	}
	src := strings.Join(body, ", ")
	switch {
	case ext && rng.Intn(4) == 0:
		return "agg(" + u + ", count(" + v + ")) :- " + src
	case ext && u != v && rng.Intn(3) == 0:
		return "out(" + v + ", " + u + ") :- " + src
	}
	return src
}
