package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestPushdownEquivalenceProperty is the property pinning bound compilation:
// for random relations and random comparison predicates — including
// constants at and beyond both ends of the storage domain, and predicate
// combinations that compile to empty ranges — executing with pushed-down
// seek bounds must equal the unpushed plain join post-filtered by the same
// predicates (the brute-force reference), on both engines.
func TestPushdownEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Constants stress the boundary arithmetic: far below the domain,
	// around zero, inside the data range, at the domain's top, and at the
	// saturation point of the half-open increment.
	consts := []int64{
		math.MinInt64, -relation.PosInf, -7, -1, 0, 1, 3, 6, 11, 12, 40,
		relation.PosInf - 1, relation.PosInf, math.MaxInt64 - 1, math.MaxInt64,
	}
	ops := []query.CmpOp{query.OpEq, query.OpNe, query.OpLt, query.OpLe, query.OpGt, query.OpGe}
	vars := []string{"a", "b", "c"}
	atoms := []query.Atom{
		{Rel: "r", Vars: []string{"a", "b"}},
		{Rel: "s", Vars: []string{"b", "c"}},
	}
	for trial := 0; trial < 80; trial++ {
		s := NewStore()
		for _, rel := range []string{"r", "s"} {
			if err := s.DefineRelation(rel, 2); err != nil {
				t.Fatal(err)
			}
			n := 5 + rng.Intn(30)
			tuples := make([][]int64, 0, n)
			for i := 0; i < n; i++ {
				u, v := int64(rng.Intn(12)), int64(rng.Intn(12))
				// A sprinkle of values at the very top of the domain so
				// bounds near PosInf actually select something.
				if rng.Intn(8) == 0 {
					u = relation.PosInf - 1
				}
				tuples = append(tuples, []int64{u, v})
			}
			if err := s.Load(rel, tuples); err != nil {
				t.Fatal(err)
			}
		}
		var preds []query.Pred
		for k := 0; k < 1+rng.Intn(3); k++ {
			p := query.Pred{Left: vars[rng.Intn(len(vars))], Op: ops[rng.Intn(len(ops))]}
			if rng.Intn(3) == 0 {
				p.IsVar = true
				p.Right = vars[rng.Intn(len(vars))]
			} else {
				p.Const = consts[rng.Intn(len(consts))]
			}
			preds = append(preds, p)
		}
		q, err := query.NewRule("prop", vars, nil, preds, atoms...)
		if err != nil {
			t.Fatalf("trial %d: NewRule(%v): %v", trial, preds, err)
		}
		want := referenceEval(t, s, q)
		for _, alg := range []Algorithm{LFTJ, MS} {
			p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1})
			if err != nil {
				t.Fatalf("trial %d %s prepare (%v): %v", trial, alg, preds, err)
			}
			rows := collectRows(t, p)
			sortedRows(rows)
			requireSameRows(t, fmt.Sprintf("trial %d %s preds %v", trial, alg, preds), rows, want)
		}
	}
}

// TestPushdownEmptyRange pins the degenerate bounds explicitly: predicates
// whose compiled range [Lo, Hi) is empty must return zero rows without
// error, on both engines.
func TestPushdownEmptyRange(t *testing.T) {
	s := NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("e", [][]int64{{1, 2}, {3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"e(a, b), a < 0",
		"e(a, b), a > 100, a < 50",
		"e(a, b), a >= 4, a <= 2",
		"e(a, b), b = 2, b = 4",
		fmt.Sprintf("e(a, b), a >= %d", relation.PosInf),
	} {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1})
			if err != nil {
				t.Fatalf("%s %q prepare: %v", alg, src, err)
			}
			if rows := collectRows(t, p); len(rows) != 0 {
				t.Errorf("%s %q: %d rows, want 0", alg, src, len(rows))
			}
		}
	}
}
