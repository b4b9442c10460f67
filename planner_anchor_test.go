package repro

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hypergraph"
	"repro/internal/query"
)

// benchmarkTexts are the queries of benchmark/data.go's embedded_joins mix
// and its point query, pinned to vertex 3 (clique4 and comb2 are
// query.Clique(4) and query.Comb(), already in corpusQueries).
var benchmarkTexts = []string{
	"fwd(a,b), fwd(b,c), fwd(a,c)",
	"v1(a), edge(a,b), edge(b,c), edge(c,d), v2(d)",
	"agg(a, count(c)) :- v1(a), edge(a,b), edge(b,c)",
	"edge(3,b), edge(b,c)",
	"out(a,b,c) :- edge(a,b), edge(b,c), a >= 100, a < 110",
	"out(a,b,c) :- edge(a,b), edge(b,c), a = 3",
}

// TestChosenGAOAnchors holds the planner to the data: for every corpus query
// of at most five variables, LFTJ runs under every attribute order that
// keeps the pinned variables and the first output variable leading, and the
// order hypergraph.ChooseGAO picks must cost at most twice the seeks of the
// cheapest — and have no cross-join level whenever some order has none.
func TestChosenGAOAnchors(t *testing.T) {
	ctx := context.Background()
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 250, 900, 3), 25, 5)
	queries := corpusQueries()
	var texts []string
	for _, c := range extendedCorpus() {
		if c.gao == nil {
			texts = append(texts, c.src)
		}
	}
	for _, src := range append(texts, benchmarkTexts...) {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		queries = append(queries, q)
	}
	seeks := func(q *Query, gao []string) int64 {
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1, GAO: gao})
		if err != nil {
			t.Fatalf("%s under %v: %v", q, gao, err)
		}
		if _, err := p.Count(ctx); err != nil {
			t.Fatalf("%s under %v: %v", q, gao, err)
		}
		return p.Stats().Seeks
	}
	for _, q := range queries {
		if q.NumVars() > 5 {
			continue
		}
		t.Run(q.String(), func(t *testing.T) {
			chosen, _ := hypergraph.ChooseGAO(q, string(LFTJ))
			var lead, rest []string
			for _, v := range q.Vars() {
				if _, pinned := q.Pinned(v); pinned {
					lead = append(lead, v)
				}
			}
			for i, v := range q.Vars() {
				switch _, pinned := q.Pinned(v); {
				case pinned:
				case i == 0:
					lead = append(lead, v)
				default:
					rest = append(rest, v)
				}
			}
			if !slices.Equal(chosen[:len(lead)], lead) {
				t.Fatalf("chosen order %v does not lead with %v", chosen, lead)
			}
			best, bestOrder, minCross := int64(-1), []string(nil), -1
			permuteStrings(rest, 0, func(p []string) {
				gao := append(slices.Clone(lead), p...)
				if n := seeks(q, gao); best < 0 || n < best {
					best, bestOrder = n, gao
				}
				if c := hypergraph.ScoreGAO(q, string(LFTJ), gao).Cross; minCross < 0 || c < minCross {
					minCross = c
				}
			})
			if got := seeks(q, chosen); got > 2*best {
				t.Errorf("chosen order %v costs %d seeks, best order %v costs %d", chosen, got, bestOrder, best)
			}
			if c := hypergraph.ScoreGAO(q, string(LFTJ), chosen).Cross; minCross == 0 && c != 0 {
				t.Errorf("chosen order %v has %d cross-join levels though a cross-join-free order exists", chosen, c)
			}
		})
	}
}

func permuteStrings(p []string, k int, visit func([]string)) {
	if k >= len(p) {
		visit(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permuteStrings(p, k+1, visit)
		p[k], p[i] = p[i], p[k]
	}
}

// TestChooseGAOKeepsCrossJoinFreeSpelling pins the planner's conservatism:
// a query whose own variable order has no cross-join level keeps it, and
// the two plans the benchmark priced get the orders that end them.
func TestChooseGAOKeepsCrossJoinFreeSpelling(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
		keys int
	}{
		{"fwd(a,b), fwd(b,c), fwd(a,c)", []string{"a", "b", "c"}, 3},
		{"fwd(a,b), fwd(a,c), fwd(a,d), fwd(b,c), fwd(b,d), fwd(c,d)", []string{"a", "b", "c", "d"}, 4},
		{"out(a,b,c) :- edge(a,b), edge(b,c), a = 3", []string{"a", "b", "c"}, 3},
		{"out(a,b,c) :- edge(a,b), edge(b,c), a >= 100, a < 110", []string{"a", "b", "c"}, 3},
		{"rev(c, a) :- edge(a, b), edge(b, c)", []string{"c", "b", "a"}, 1},
		{"agg(a, count(c)) :- v1(a), edge(a,b), edge(b,c)", []string{"a", "b", "c"}, 1},
		{"edge(3,b), edge(b,c)", []string{"$1", "b", "c"}, 2},
		{"edge(a, 3), edge(7, b)", []string{"$1", "$2", "a", "b"}, 2},
		{"both(count(a), count(c)) :- edge(a, b), edge(b, c)", []string{"a", "b", "c"}, 1},
	} {
		q, err := query.Parse("q", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		gao, keys := hypergraph.ChooseGAO(q, string(LFTJ))
		if !slices.Equal(gao, tc.want) || keys != tc.keys {
			t.Errorf("%s: chose %v with %d keys, want %v with %d", tc.src, gao, keys, tc.want, tc.keys)
		}
	}
	for _, q := range []*Query{query.Clique(3), query.Clique(4), query.Cycle(4), query.Lollipop(2)} {
		if gao, _ := hypergraph.ChooseGAO(q, string(LFTJ)); !slices.Equal(gao, q.Vars()) {
			t.Errorf("%s: chose %v over the cross-join-free spelling %v", q.Name, gao, q.Vars())
		}
	}
}

// planAnchorCase is one query TestPlanAnchors compiles, with the order the
// entry supplies through Options.GAO (nil for the planner's own).
type planAnchorCase struct {
	name string
	q    *Query
	gao  []string
}

// planAnchorCases are the queries whose plans TestPlanAnchors pins: the
// plain and extended corpora, the benchmark's queries, and the 8- and
// 9-variable path and cycle, the widest queries the exhaustive order
// searches take.
func planAnchorCases(t *testing.T, s *Store) []planAnchorCase {
	var cases []planAnchorCase
	for _, q := range append(corpusQueries(), query.Path(7), query.Path(8), query.Cycle(8), query.Cycle(9)) {
		cases = append(cases, planAnchorCase{q.String(), q, nil})
	}
	add := func(name, src string, gao []string) {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		cases = append(cases, planAnchorCase{name, q, gao})
	}
	for _, c := range extendedCorpus() {
		add(c.String(), c.src, c.gao)
	}
	for _, src := range benchmarkTexts {
		add(src, src, nil)
	}
	return cases
}

// planAnchor is what Explain reports of one compiled plan: the order, the
// β-cyclicity verdict, and each atom's skeleton membership ('1' in) in atom
// order.
type planAnchor struct {
	gao        string
	betaCyclic bool
	skeleton   string
}

func explainAnchor(t *testing.T, s *Store, c planAnchorCase, alg Algorithm) planAnchor {
	t.Helper()
	p, err := s.Prepare(c.q, Options{Algorithm: alg, Workers: 1, GAO: c.gao})
	if err != nil {
		t.Fatalf("%s [%s]: %v", c.name, alg, err)
	}
	e := p.Explain()
	skel := make([]byte, len(e.Atoms))
	for i, a := range e.Atoms {
		skel[i] = '0'
		if a.InSkeleton {
			skel[i] = '1'
		}
	}
	return planAnchor{strings.Join(e.GAO, " "), e.BetaCyclic, string(skel)}
}

// planAnchors are the plans the exhaustive chain-order planner compiled for
// planAnchorCases, keyed "algorithm: case": the order, whether the query is
// β-cyclic, and the skeleton membership of each atom. An LFTJ query without
// a head has its order priced on TestPlanAnchors' graph, so its cell
// records the order the data chose.
var planAnchors = map[string]planAnchor{
	"lftj: fwd(a, b), fwd(a, c), fwd(b, c)":                                                                                   {"c b a", true, "111"},
	"ms: fwd(a, b), fwd(a, c), fwd(b, c)":                                                                                     {"b a c", true, "110"},
	"lftj: fwd(a, b), fwd(a, c), fwd(a, d), fwd(b, c), fwd(b, d), fwd(c, d)":                                                  {"a c b d", true, "111111"},
	"ms: fwd(a, b), fwd(a, c), fwd(a, d), fwd(b, c), fwd(b, d), fwd(c, d)":                                                    {"b a c d", true, "111000"},
	"lftj: fwd(a, b), fwd(b, c), fwd(c, d), fwd(a, d)":                                                                        {"c b d a", true, "1111"},
	"ms: fwd(a, b), fwd(b, c), fwd(c, d), fwd(a, d)":                                                                          {"a b c d", true, "1110"},
	"lftj: v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)":                                                                  {"a b c d", false, "11111"},
	"ms: v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)":                                                                    {"a b c d", false, "11111"},
	"lftj: v1(a), v2(e), edge(a, b), edge(b, c), edge(c, d), edge(d, e)":                                                      {"a b c d e", false, "111111"},
	"ms: v1(a), v2(e), edge(a, b), edge(b, c), edge(c, d), edge(d, e)":                                                        {"a b c d e", false, "111111"},
	"lftj: v1(b), v2(c), edge(a, b), edge(a, c)":                                                                              {"b a c", false, "1111"},
	"ms: v1(b), v2(c), edge(a, b), edge(a, c)":                                                                                {"b a c", false, "1111"},
	"lftj: v1(d), v2(e), v3(f), v4(g), edge(a, b), edge(a, c), edge(b, d), edge(b, e), edge(c, f), edge(c, g)":                {"d b e a c f g", false, "1111111111"},
	"ms: v1(d), v2(e), v3(f), v4(g), edge(a, b), edge(a, c), edge(b, d), edge(b, e), edge(c, f), edge(c, g)":                  {"d b a c f e g", false, "1111111111"},
	"lftj: v1(c), v2(d), edge(a, b), edge(a, c), edge(b, d)":                                                                  {"c a b d", false, "11111"},
	"ms: v1(c), v2(d), edge(a, b), edge(a, c), edge(b, d)":                                                                    {"c a b d", false, "11111"},
	"lftj: v1(a), edge(a, b), edge(b, c), edge(c, d), edge(c, e), edge(d, e)":                                                 {"a b c d e", true, "111111"},
	"ms: v1(a), edge(a, b), edge(b, c), edge(c, d), edge(c, e), edge(d, e)":                                                   {"a b c d e", true, "111110"},
	"lftj: v1(a), edge(a, b), edge(b, c), edge(c, d), edge(d, e), edge(d, f), edge(d, g), edge(e, f), edge(e, g), edge(f, g)": {"a b c d e f g", true, "1111111111"},
	"ms: v1(a), edge(a, b), edge(b, c), edge(c, d), edge(d, e), edge(d, f), edge(d, g), edge(e, f), edge(e, g), edge(f, g)":   {"a b c d e f g", true, "1111111000"},
	"lftj: v1(a), v2(h), edge(a, b), edge(b, c), edge(c, d), edge(d, e), edge(e, f), edge(f, g), edge(g, h)":                  {"a b c d e f g h", false, "111111111"},
	"ms: v1(a), v2(h), edge(a, b), edge(b, c), edge(c, d), edge(d, e), edge(e, f), edge(f, g), edge(g, h)":                    {"a b c d e f g h", false, "111111111"},
	"lftj: v1(a), v2(i), edge(a, b), edge(b, c), edge(c, d), edge(d, e), edge(e, f), edge(f, g), edge(g, h), edge(h, i)":      {"a b c d e f g h i", false, "1111111111"},
	"ms: v1(a), v2(i), edge(a, b), edge(b, c), edge(c, d), edge(d, e), edge(e, f), edge(f, g), edge(g, h), edge(h, i)":        {"a b c d e f g h i", false, "1111111111"},
	"lftj: fwd(a, b), fwd(b, c), fwd(c, d), fwd(d, e), fwd(e, f), fwd(f, g), fwd(g, h), fwd(a, h)":                            {"g f e d c b h a", true, "11111111"},
	"ms: fwd(a, b), fwd(b, c), fwd(c, d), fwd(d, e), fwd(e, f), fwd(f, g), fwd(g, h), fwd(a, h)":                              {"a b c d e f g h", true, "11111110"},
	"lftj: fwd(a, b), fwd(b, c), fwd(c, d), fwd(d, e), fwd(e, f), fwd(f, g), fwd(g, h), fwd(h, i), fwd(a, i)":                 {"h g f e d c b i a", true, "111111111"},
	"ms: fwd(a, b), fwd(b, c), fwd(c, d), fwd(d, e), fwd(e, f), fwd(f, g), fwd(g, h), fwd(h, i), fwd(a, i)":                   {"a b c d e f g h i", true, "111111110"},
	"lftj: out(a) :- edge(a, b)":                                      {"a b", false, "1"},
	"ms: out(a) :- edge(a, b)":                                        {"a b", false, "1"},
	"lftj: mid(b) :- edge(a, b), edge(b, c)":                          {"b a c", false, "11"},
	"ms: mid(b) :- edge(a, b), edge(b, c)":                            {"b a c", false, "11"},
	"lftj: pair(a, c) :- edge(a, b), edge(b, c)":                      {"a b c", false, "11"},
	"ms: pair(a, c) :- edge(a, b), edge(b, c)":                        {"a b c", false, "11"},
	"lftj: rev(c, a) :- edge(a, b), edge(b, c)":                       {"c b a", false, "11"},
	"ms: rev(c, a) :- edge(a, b), edge(b, c)":                         {"c b a", false, "11"},
	"lftj: hop3(a, d) :- edge(a, b), edge(b, c), edge(c, d)":          {"a b c d", false, "111"},
	"ms: hop3(a, d) :- edge(a, b), edge(b, c), edge(c, d)":            {"a b c d", false, "111"},
	"lftj: out(a, c) :- edge(a, b), edge(b, c), edge(c, d)":           {"a b c d", false, "111"},
	"ms: out(a, c) :- edge(a, b), edge(b, c), edge(c, d)":             {"a b c d", false, "111"},
	"lftj: edge(3, b)":                                                {"$1 b", false, "1"},
	"ms: edge(3, b)":                                                  {"$1 b", false, "1"},
	"lftj: edge(a, 7), edge(7, b)":                                    {"$1 $2 a b", false, "11"},
	"ms: edge(a, 7), edge(7, b)":                                      {"$1 $2 a b", false, "11"},
	"lftj: edge(3, b), edge(b, c)":                                    {"$1 b c", false, "11"},
	"ms: edge(3, b), edge(b, c)":                                      {"$1 b c", false, "11"},
	"lftj: edge(a, 3), edge(7, b)":                                    {"$1 $2 a b", false, "11"},
	"ms: edge(a, 3), edge(7, b)":                                      {"$1 $2 a b", false, "11"},
	"lftj: out(b) :- edge(a, b), a = 3":                               {"a b", false, "1"},
	"ms: out(b) :- edge(a, b), a = 3":                                 {"a b", false, "1"},
	"lftj: out(c) :- edge(3, b), edge(b, c)":                          {"$1 c b", false, "11"},
	"ms: out(c) :- edge(3, b), edge(b, c)":                            {"$1 c b", false, "11"},
	"lftj: edge(a, b), a < b":                                         {"a b", false, "1"},
	"ms: edge(a, b), a < b":                                           {"a b", false, "1"},
	"lftj: edge(a, b), a >= 10, b < 100":                              {"a b", false, "1"},
	"ms: edge(a, b), a >= 10, b < 100":                                {"a b", false, "1"},
	"lftj: edge(a, b), edge(b, c), a != c":                            {"a b c", false, "11"},
	"ms: edge(a, b), edge(b, c), a != c":                              {"a b c", false, "11"},
	"lftj: two(a, c) :- edge(a, b), edge(b, c), b >= 10, c < 100":     {"a b c", false, "11"},
	"ms: two(a, c) :- edge(a, b), edge(b, c), b >= 10, c < 100":       {"a b c", false, "11"},
	"lftj: deg(a, count(b)) :- edge(a, b)":                            {"a b", false, "1"},
	"ms: deg(a, count(b)) :- edge(a, b)":                              {"a b", false, "1"},
	"lftj: deg2(a, count(c)) :- edge(a, b), edge(b, c)":               {"a b c", false, "11"},
	"ms: deg2(a, count(c)) :- edge(a, b), edge(b, c)":                 {"a b c", false, "11"},
	"lftj: stats(a, min(b), max(b), sum(b)) :- edge(a, b)":            {"a b", false, "1"},
	"ms: stats(a, min(b), max(b), sum(b)) :- edge(a, b)":              {"a b", false, "1"},
	"lftj: total(count(a)) :- edge(a, b)":                             {"a b", false, "1"},
	"ms: total(count(a)) :- edge(a, b)":                               {"a b", false, "1"},
	"lftj: agg(a, count(c)) :- edge(a, b), edge(b, c), a < 40":        {"a b c", false, "11"},
	"ms: agg(a, count(c)) :- edge(a, b), edge(b, c), a < 40":          {"a b c", false, "11"},
	"lftj: both(count(a), count(c)) :- edge(a, b), edge(b, c)":        {"a b c", false, "11"},
	"ms: both(count(a), count(c)) :- edge(a, b), edge(b, c)":          {"a b c", false, "11"},
	"lftj: hot(a, count(b)) :- edge(a, b), b > 20, a != 5":            {"a b", false, "1"},
	"ms: hot(a, count(b)) :- edge(a, b), b > 20, a != 5":              {"a b", false, "1"},
	"lftj: sel(a) :- edge(a, b), edge(b, c), c >= 2, a < 200":         {"a b c", false, "11"},
	"ms: sel(a) :- edge(a, b), edge(b, c), c >= 2, a < 200":           {"a b c", false, "11"},
	"lftj: pair(a, c) :- edge(a, b), edge(b, c) under [b a c]":        {"b a c", false, "11"},
	"ms: pair(a, c) :- edge(a, b), edge(b, c) under [b a c]":          {"b a c", false, "11"},
	"lftj: rev(c, a) :- edge(a, b), edge(b, c) under [a b c]":         {"a b c", false, "11"},
	"ms: rev(c, a) :- edge(a, b), edge(b, c) under [a b c]":           {"a b c", false, "11"},
	"lftj: deg2(a, count(c)) :- edge(a, b), edge(b, c) under [c b a]": {"c b a", false, "11"},
	"ms: deg2(a, count(c)) :- edge(a, b), edge(b, c) under [c b a]":   {"c b a", false, "11"},
	"lftj: edge(3, b), edge(b, c) under [c b $1]":                     {"c b $1", false, "11"},
	"ms: edge(3, b), edge(b, c) under [c b $1]":                       {"c b $1", false, "11"},
	"lftj: fwd(a,b), fwd(b,c), fwd(a,c)":                              {"c b a", true, "111"},
	"ms: fwd(a,b), fwd(b,c), fwd(a,c)":                                {"a b c", true, "110"},
	"lftj: v1(a), edge(a,b), edge(b,c), edge(c,d), v2(d)":             {"a b c d", false, "11111"},
	"ms: v1(a), edge(a,b), edge(b,c), edge(c,d), v2(d)":               {"a b c d", false, "11111"},
	"lftj: agg(a, count(c)) :- v1(a), edge(a,b), edge(b,c)":           {"a b c", false, "111"},
	"ms: agg(a, count(c)) :- v1(a), edge(a,b), edge(b,c)":             {"a b c", false, "111"},
	"lftj: edge(3,b), edge(b,c)":                                      {"$1 b c", false, "11"},
	"ms: edge(3,b), edge(b,c)":                                        {"$1 b c", false, "11"},
	"lftj: out(a,b,c) :- edge(a,b), edge(b,c), a >= 100, a < 110":     {"a b c", false, "11"},
	"ms: out(a,b,c) :- edge(a,b), edge(b,c), a >= 100, a < 110":       {"a b c", false, "11"},
	"lftj: out(a,b,c) :- edge(a,b), edge(b,c), a = 3":                 {"a b c", false, "11"},
	"ms: out(a,b,c) :- edge(a,b), edge(b,c), a = 3":                   {"a b c", false, "11"},
}

// TestPlanAnchors holds every plan of planAnchorCases, under both engines,
// to the one recorded in planAnchors: deciding β-acyclicity by nest-point
// elimination must leave each order, verdict and skeleton as it was.
func TestPlanAnchors(t *testing.T) {
	s := graphStore(t, dataset.Generate(dataset.HolmeKim, 60, 150, 3), 5, 5)
	seen := 0
	for _, c := range planAnchorCases(t, s) {
		for _, alg := range []Algorithm{LFTJ, MS} {
			key := string(alg) + ": " + c.name
			want, ok := planAnchors[key]
			if !ok {
				t.Errorf("%s: no recorded plan", key)
				continue
			}
			seen++
			if got := explainAnchor(t, s, c, alg); got != want {
				t.Errorf("%s: plan %+v, recorded %+v", key, got, want)
			}
		}
	}
	if seen != len(planAnchors) {
		t.Errorf("compiled %d of the %d recorded plans", seen, len(planAnchors))
	}
}

// TestWideStarIsBetaAcyclic checks the verdict past the exhaustive width:
// the ten-variable star e(c,x1), …, e(c,x9) is β-acyclic like its
// nine-variable prefix, so both engines compile it as such, under a chain
// order.
func TestWideStarIsBetaAcyclic(t *testing.T) {
	s := NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("e", [][]int64{{0, 1}, {0, 2}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	var atoms []string
	for i := 1; i <= 9; i++ {
		atoms = append(atoms, fmt.Sprintf("e(c, x%d)", i))
	}
	q, err := s.ParseQuery("star", strings.Join(atoms, ", "))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{LFTJ, MS} {
		p, err := s.Prepare(q, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		e := p.Explain()
		if e.BetaCyclic {
			t.Errorf("%s: the star compiles β-cyclic", alg)
		}
		if !hypergraph.IsChainGAO(e.GAO, q.Atoms) {
			t.Errorf("%s: order %v is not a chain order of the star", alg, e.GAO)
		}
	}
}
