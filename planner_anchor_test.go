package repro

import (
	"context"
	"slices"
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
		q := query.MustParse("q", tc.src)
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
