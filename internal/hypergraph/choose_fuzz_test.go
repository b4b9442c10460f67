package hypergraph

import (
	"slices"
	"testing"

	"repro/internal/query"
)

// FuzzChooseGAO throws every query the parser accepts at the planner, for
// both engines. The invariants: the order is a permutation of q.Vars();
// the pinned variables form its prefix; keys counts leading emitted columns
// that — pinned ones aside — the order enumerates right after that prefix,
// in output order; and the choice is deterministic. For every prefix of
// the LFTJ order, Extensions lists permutations of q.Vars() without a
// cross-join level, each starting with the prefix and then a variable that
// may come next: one that leads (the prefix is empty), is pinned, or
// shares an atom with the prefix. They place distinct variables next, in
// q.Vars() order, and every such variable when the atoms connect the
// variables and the prefix has no cross-join level. Minesweeper skips
// eight- and nine-variable queries: picking their chain order (findChainGAO)
// searches every permutation for the longest path, at seconds per input.
// Wider queries take the greedy path under LFTJ and nest-point elimination
// under Minesweeper.
func FuzzChooseGAO(f *testing.F) {
	for _, src := range []string{
		"edge(a, b), edge(b, c)",
		"fwd(a,b), fwd(b,c), fwd(a,c)",
		"v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)",
		"out(c, a) :- edge(a, b), edge(b, c)",
		"hop3(a, d) :- edge(a, b), edge(b, c), edge(c, d)",
		"e(137, b), e(b, c)",
		"e(a, 3), e(7, b)",
		"e(3, b), e(b, 5)",
		"out(b, a) :- e(a, b), a = 4",
		"agg(a, count(c)) :- v1(a), edge(a, b), edge(b, c)",
		"both(count(a), count(c)) :- edge(a, b), edge(b, c)",
		"out(a, count(c)) :- e(a, b), e(b, c), b != 4, a >= 1",
		"out(a) :- e(a, b), f(c, d), g(b, c), h(d, e2), i(e2, f2), j(f2, g2), k(g2, h2), l(h2, i2), m(i2, j2)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse("fuzz", src)
		if err != nil {
			return
		}
		n := q.NumVars()
		if n > maxExhaustiveVars+3 {
			return
		}
		algs := []string{"lftj", minesweeper}
		if n > 7 && n <= maxExhaustiveVars {
			algs = algs[:1]
		}
		for _, alg := range algs {
			gao, keys := ChooseGAO(q, alg)
			if again, k := ChooseGAO(q, alg); !slices.Equal(gao, again) || k != keys {
				t.Fatalf("%s [%s]: chose %v/%d, then %v/%d", src, alg, gao, keys, again, k)
			}
			sorted, vars := slices.Sorted(slices.Values(gao)), slices.Sorted(slices.Values(q.Vars()))
			if !slices.Equal(sorted, vars) {
				t.Fatalf("%s [%s]: order %v is not a permutation of %v", src, alg, gao, q.Vars())
			}
			pinned := func(v string) bool { _, ok := q.Pinned(v); return ok }
			lead := 0
			for lead < len(gao) && pinned(gao[lead]) {
				lead++
			}
			if i := slices.IndexFunc(gao[lead:], pinned); i >= 0 {
				t.Fatalf("%s [%s]: pinned %s is not in the leading run of %v", src, alg, gao[lead+i], gao)
			}
			cols := q.Emitted()
			if keys < 0 || keys > len(cols) {
				t.Fatalf("%s [%s]: %d keys of %d emitted columns", src, alg, keys, len(cols))
			}
			free := slices.DeleteFunc(slices.Clone(cols[:keys]), pinned)
			if len(free) > len(gao)-lead || !slices.Equal(gao[lead:lead+len(free)], free) {
				t.Fatalf("%s [%s]: keys %v do not follow the pinned prefix of %v", src, alg, free, gao)
			}
			if alg == "lftj" {
				checkExtensions(t, src, q, gao)
			}
		}
	})
}

// checkExtensions holds Extensions to its contract for every prefix of gao.
func checkExtensions(t *testing.T, src string, q *query.Query, gao []string) {
	vars := slices.Sorted(slices.Values(q.Vars()))
	joins := func(prefix []string, v string) bool {
		if _, ok := q.Pinned(v); ok || len(prefix) == 0 {
			return true
		}
		for _, a := range q.Atoms {
			if slices.Contains(a.Vars, v) && slices.ContainsFunc(a.Vars, func(w string) bool { return slices.Contains(prefix, w) }) {
				return true
			}
		}
		return false
	}
	// reach grows from the first variable through shared atoms.
	reach := slices.Clone(q.Vars()[:min(1, q.NumVars())])
	for grown := true; grown; {
		grown = false
		for _, a := range q.Atoms {
			if slices.ContainsFunc(a.Vars, func(w string) bool { return slices.Contains(reach, w) }) {
				for _, v := range a.Vars {
					if !slices.Contains(reach, v) {
						reach, grown = append(reach, v), true
					}
				}
			}
		}
	}
	// all: every variable that may come next gets an order, because the
	// atoms connect the variables and the prefix has no cross-join level.
	all := len(reach) == q.NumVars()
	for d := range gao {
		prefix := gao[:d]
		var want, got []string
		for _, v := range q.Vars() {
			if !slices.Contains(prefix, v) && joins(prefix, v) {
				want = append(want, v)
			}
		}
		for _, ext := range Extensions(q, prefix) {
			if !slices.Equal(slices.Sorted(slices.Values(ext)), vars) {
				t.Fatalf("%s: extension %v of %v is not a permutation of %v", src, ext, prefix, q.Vars())
			}
			if !slices.Equal(ext[:d], prefix) {
				t.Fatalf("%s: extension %v does not start with %v", src, ext, prefix)
			}
			if ScoreGAO(q, "lftj", ext).Cross != 0 {
				t.Fatalf("%s: extension %v has a cross-join level", src, ext)
			}
			got = append(got, ext[d])
		}
		next := slices.DeleteFunc(slices.Clone(want), func(v string) bool { return !slices.Contains(got, v) })
		if !slices.Equal(got, next) || all && !slices.Equal(got, want) {
			t.Fatalf("%s: extensions of %v place %v next, want %v", src, prefix, got, want)
		}
		all = all && slices.Contains(want, gao[d])
	}
}

// FuzzBetaAcyclic holds the β-acyclicity verdict to its definition: for
// every parsed query of at most seven variables, BetaAcyclic must agree with
// an exhaustive search for an order that satisfies the chain condition
// (Prop 4.2). Whenever the verdict is β-acyclic — at any width up to twelve
// variables but the exhaustive eight and nine — the order findChainGAO picks
// must be a chain order of every variable.
func FuzzBetaAcyclic(f *testing.F) {
	for _, src := range []string{
		"edge(a, b), edge(b, c)",
		"fwd(a,b), fwd(b,c), fwd(a,c)",
		"r(a, b), s(b, c), t(a, c), u(a, b, c)",
		"r(a, b, c), s(b, c, d), t(c, d, e)",
		"v1(a), edge(a, b), edge(b, c), edge(c, d), edge(c, e), edge(d, e)",
		"e(c, x1), e(c, x2), e(c, x3), e(c, x4), e(c, x5), e(c, x6), e(c, x7), e(c, x8), e(c, x9)",
		"e(a, b), e(b, c), e(c, d), e(d, e2), e(e2, f2), e(f2, g2), e(g2, h2), e(h2, i2), e(i2, j2), e(j2, a)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse("fuzz", src)
		if err != nil {
			return
		}
		n := q.NumVars()
		if (n > 7 && n <= maxExhaustiveVars) || n > maxExhaustiveVars+3 {
			return
		}
		beta := BetaAcyclic(q.Atoms)
		if n <= 7 {
			chain := false
			permute(slices.Clone(q.Vars()), 0, func(p []string) {
				chain = chain || IsChainGAO(p, q.Atoms)
			})
			if beta != chain {
				t.Fatalf("%s: BetaAcyclic = %v, but a chain order exists = %v", src, beta, chain)
			}
		}
		if !beta {
			return
		}
		gao := findChainGAO(q.Vars(), q.Atoms)
		if len(gao) != n || !IsChainGAO(gao, q.Atoms) {
			t.Fatalf("%s: findChainGAO = %v, not a chain order of %v", src, gao, q.Vars())
		}
	})
}
