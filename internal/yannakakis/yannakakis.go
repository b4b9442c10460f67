// Package yannakakis implements Yannakakis' algorithm [17] for α-acyclic
// queries: full semijoin reduction over a GYO join tree, then a bottom-up
// counting pass that never materializes the output. The paper cites it as
// the classical linear-time yardstick for acyclic joins ("#Minesweeper is to
// message passing what Minesweeper was to Yannakakis algorithm", §4.11); in
// the reproduction it also stands in for the closed-source "System HC"
// comparator of Figure 6.
package yannakakis

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/query"
)

// Engine is the Yannakakis engine. It rejects cyclic queries.
type Engine struct{}

// table is a mutable copy of one atom's tuples with per-tuple weights.
type table struct {
	vars   []string
	width  int
	rows   []int64
	weight []int64
	alive  []bool
}

func (t *table) row(i int) []int64 { return t.rows[i*t.width : (i+1)*t.width] }
func (t *table) count() int        { return len(t.weight) }

// Count returns the number of result tuples of the acyclic query q; the
// counting pass never materialises them.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	jt, err := hypergraph.BuildJoinTree(q)
	if err != nil {
		return 0, err
	}
	tabs := make([]*table, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := db.Relation(a.Rel)
		if err != nil {
			return 0, err
		}
		if r.Arity() != len(a.Vars) {
			return 0, fmt.Errorf("yannakakis: atom %s arity mismatch with %s", a, r)
		}
		t := &table{vars: append([]string(nil), a.Vars...), width: r.Arity()}
		t.rows = make([]int64, 0, r.Len()*r.Arity())
		for j := 0; j < r.Len(); j++ {
			t.rows = append(t.rows, r.Tuple(j)...)
		}
		t.weight = make([]int64, r.Len())
		t.alive = make([]bool, r.Len())
		for j := range t.alive {
			t.alive[j] = true
			t.weight[j] = 1
		}
		tabs[i] = t
	}

	// Upward semijoin pass (children before parents): parent ⋉ child.
	for _, i := range jt.Order {
		if p := jt.Parent[i]; p != -1 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			semijoin(tabs[p], tabs[i])
		}
	}
	// Downward pass (parents before children): child ⋉ parent.
	for k := len(jt.Order) - 1; k >= 0; k-- {
		i := jt.Order[k]
		if p := jt.Parent[i]; p != -1 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			semijoin(tabs[i], tabs[p])
		}
	}
	// Counting pass, children before parents: fold each child's weights
	// into its parent grouped by the shared variables; the root's weight sum
	// is the join size.
	for _, i := range jt.Order {
		p := jt.Parent[i]
		if p == -1 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		foldCounts(tabs[p], tabs[i])
	}
	var total int64
	root := tabs[jt.Root]
	for j := 0; j < root.count(); j++ {
		if root.alive[j] {
			total += root.weight[j]
		}
	}
	return total, nil
}

// sharedPositions returns aligned column positions of the variables common
// to both tables.
func sharedPositions(a, b *table) (pa, pb []int) {
	idx := make(map[string]int, len(b.vars))
	for j, v := range b.vars {
		idx[v] = j
	}
	for i, v := range a.vars {
		if j, ok := idx[v]; ok {
			pa = append(pa, i)
			pb = append(pb, j)
		}
	}
	return pa, pb
}

func keyOf(row []int64, pos []int, buf []byte) []byte {
	for _, p := range pos {
		v := uint64(row[p])
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return buf
}

// semijoin keeps only dst rows whose shared-variable projection appears in
// some alive src row.
func semijoin(dst, src *table) {
	pd, ps := sharedPositions(dst, src)
	if len(pd) == 0 {
		// No shared variables: dst survives iff src is non-empty.
		any := false
		for j := range src.alive {
			if src.alive[j] {
				any = true
				break
			}
		}
		if !any {
			for i := range dst.alive {
				dst.alive[i] = false
			}
		}
		return
	}
	present := make(map[string]struct{}, src.count())
	var buf []byte
	for j := 0; j < src.count(); j++ {
		if !src.alive[j] {
			continue
		}
		buf = keyOf(src.row(j), ps, buf[:0])
		present[string(buf)] = struct{}{}
	}
	for i := 0; i < dst.count(); i++ {
		if !dst.alive[i] {
			continue
		}
		buf = keyOf(dst.row(i), pd, buf[:0])
		if _, ok := present[string(buf)]; !ok {
			dst.alive[i] = false
		}
	}
}

// foldCounts multiplies each parent row's weight by the summed weights of
// matching child rows. After full reduction every parent row matches at
// least one child row.
func foldCounts(parent, child *table) {
	pp, pc := sharedPositions(parent, child)
	sums := make(map[string]int64, child.count())
	var buf []byte
	for j := 0; j < child.count(); j++ {
		if !child.alive[j] {
			continue
		}
		buf = keyOf(child.row(j), pc, buf[:0])
		sums[string(buf)] += child.weight[j]
	}
	if len(pp) == 0 {
		var total int64
		for _, s := range sums {
			total += s
		}
		for i := range parent.weight {
			parent.weight[i] *= total
		}
		return
	}
	for i := 0; i < parent.count(); i++ {
		if !parent.alive[i] {
			continue
		}
		buf = keyOf(parent.row(i), pp, buf[:0])
		parent.weight[i] *= sums[string(buf)]
	}
}
