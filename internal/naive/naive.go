// Package naive implements a straightforward backtracking join used only as
// a differential-testing oracle: it binds variables one at a time, each
// next to one already bound where the query allows, scanning each
// candidate atom with simple prefix lookups, and drops a partial binding as
// soon as an atom it fully binds is absent from the flat rows. It is
// deliberately unoptimized and obviously correct.
package naive

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Count returns the number of result tuples of the natural join q.
func Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	var n int64
	err := Enumerate(ctx, q, db, func([]int64) bool {
		n++
		return true
	})
	return n, err
}

// Enumerate calls emit for every result tuple, with the variable bindings in
// q.Vars() order, and stops early if emit returns false. It honors context
// cancellation.
func Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := db.Relation(a.Rel)
		if err != nil {
			return err
		}
		if r.Arity() != len(a.Vars) {
			return errArity(a, r)
		}
		rels[i] = r
	}
	vars := q.Vars()
	idx := q.VarIndex()
	order := bindOrder(q)
	binding := make([]int64, len(vars)) // indexed like vars
	tick := core.NewTicker(ctx)
	// doneAt[d] lists the atoms whose variables are all bound at depth d:
	// they are checked right there, since a binding one of them rejects
	// would fail the final verification anyway.
	depth := make([]int, len(vars))
	for d, v := range order {
		depth[v] = d
	}
	doneAt := make([][]int, len(vars))
	for i, a := range q.Atoms {
		last := 0
		for _, av := range a.Vars {
			last = max(last, depth[idx[av]])
		}
		doneAt[last] = append(doneAt[last], i)
	}
	// src[d] is where depth d draws its candidates: the atom containing the
	// variable with the most leading columns bound by then (k), whose rows
	// matching those columns — one prefix lookup — hold every value a full
	// binding can give the variable.
	src := make([]source, len(vars))
	for d, v := range order {
		for n, ai := range q.AtomsWith(vars[v]) {
			vs := q.Atoms[ai].Vars
			k := 0
			for k < len(vs) && depth[idx[vs[k]]] < d {
				k++
			}
			if n == 0 || k > src[d].k {
				src[d] = source{atom: ai, col: slices.Index(vs, vars[v]), k: k}
			}
		}
	}
	prefix := make([]int64, 0, 4)
	point := make([]int64, 0, 4)
	holds := func(i int) bool {
		point = point[:0]
		for _, av := range q.Atoms[i].Vars {
			point = append(point, binding[idx[av]])
		}
		return rels[i].Contains(point)
	}

	var rec func(d int) (bool, error)
	rec = func(d int) (bool, error) {
		if err := tick.Tick(); err != nil {
			return false, err
		}
		if d == len(vars) {
			// Verify every atom (cheap given full bindings).
			for i := range q.Atoms {
				if !holds(i) {
					return true, nil
				}
			}
			return emit(append([]int64(nil), binding...)), nil
		}
		v, sd := order[d], src[d]
		prefix = prefix[:0]
		for _, av := range q.Atoms[sd.atom].Vars[:sd.k] {
			prefix = append(prefix, binding[idx[av]])
		}
		r := rels[sd.atom]
		lo, hi := r.PrefixRange(prefix)
		seen := make(map[int64]bool)
		for row := lo; row < hi; row++ {
			val := r.Value(row, sd.col)
			if seen[val] {
				continue
			}
			seen[val] = true
			binding[v] = val
			if !allHold(doneAt[d], holds) {
				continue
			}
			cont, err := rec(d + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}

// source is one depth's candidate source: column col of atom, whose first k
// columns are bound when the depth is reached.
type source struct{ atom, col, k int }

// bindOrder is the order variables are bound in (indexes into q.Vars()):
// the first variable, then repeatedly the first unbound one sharing an atom
// with a bound one — so no level is a blind product over a variable nothing
// constrains yet, unless the query is disconnected.
func bindOrder(q *query.Query) []int {
	vars, idx := q.Vars(), q.VarIndex()
	bound := make([]bool, len(vars))
	order := make([]int, 0, len(vars))
	for len(order) < len(vars) {
		next := -1
		for v := 0; v < len(vars) && next < 0; v++ {
			if bound[v] {
				continue
			}
			for _, ai := range q.AtomsWith(vars[v]) {
				for _, av := range q.Atoms[ai].Vars {
					if bound[idx[av]] {
						next = v
					}
				}
			}
		}
		if next < 0 {
			next = slices.Index(bound, false)
		}
		bound[next] = true
		order = append(order, next)
	}
	return order
}

func allHold(atoms []int, holds func(int) bool) bool {
	for _, i := range atoms {
		if !holds(i) {
			return false
		}
	}
	return true
}

type arityError struct {
	atom query.Atom
	rel  *relation.Relation
}

func errArity(a query.Atom, r *relation.Relation) error {
	return &arityError{atom: a, rel: r}
}

func (e *arityError) Error() string {
	return "naive: atom " + e.atom.String() + " arity mismatch with relation " + e.rel.String()
}
