// Package genericjoin implements the paper's Algorithm 1 — the high-level
// recursive view of worst-case-optimal join processing (the simplified
// NPRR/LFTJ exposition from "Skew Strikes Back" [10], which the paper
// reproduces verbatim):
//
//	L ← ∩_{R : A1 ∈ vars(R)} π_{A1}(R)
//	for each a1 ∈ L: recurse on Q[a1]
//
// Unlike the iterator-based LFTJ engine (internal/lftj) it materializes the
// candidate intersection L at every level with hash sets instead of
// leapfrogging sorted iterators. It is worst-case optimal by the same
// analysis but carries the constant-factor overheads the leapfrog
// formulation avoids — making it a useful ablation of *how* a WCOJ is
// implemented, not just whether one is used.
package genericjoin

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/relation"
)

// Engine is the materializing generic-join engine. It narrows explicit row
// spans over flat GAO-consistent relations — each atom's trie index
// (core.DB.TrieIndex) materialised by Overlay.Flat from one pinned
// generation — so like the other ablation baselines it has no compiled plan
// and binds per run.
type Engine struct {
	// GAO overrides the variable order; empty means hypergraph.ChooseGAO's.
	GAO []string
}

// Count returns the number of result tuples of q.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	var n int64
	err := e.Enumerate(ctx, q, db, func([]int64) bool {
		n++
		return true
	})
	return n, err
}

// Enumerate calls emit for every result tuple, with the variable bindings in
// q.Vars() order, and stops early if emit returns false.
func (e Engine) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	gao := e.GAO
	if gao == nil {
		gao, _ = hypergraph.ChooseGAO(q, "genericjoin")
	}
	if len(gao) != q.NumVars() {
		return fmt.Errorf("genericjoin: GAO %v does not cover the %d query variables: %w", gao, q.NumVars(), core.ErrUnboundVar)
	}
	bound, err := core.BindAtoms(q, db, gao)
	if err != nil {
		return err
	}
	gen := db.Pin()
	atoms := make([]atom, len(q.Atoms))
	for i, a := range bound {
		atoms[i] = atom{rel: gen.Overlay(a.Index).Flat(), varPos: a.VarPos}
	}
	ex := &exec{
		n:       len(gao),
		atoms:   atoms,
		binding: make([]int64, len(gao)),
		emit:    emit,
		tick:    core.NewTicker(ctx),
	}
	idx := q.VarIndex()
	ex.outPerm = make([]int, len(gao))
	for g, v := range gao {
		ex.outPerm[g] = idx[v]
	}
	// For each depth, the atoms whose next column binds that variable, and
	// their per-atom prefix columns (all earlier columns are bound once we
	// reach the depth, because atom columns are GAO-sorted).
	ex.byVar = make([][]participant, len(gao))
	for ai, a := range atoms {
		for lvl, p := range a.varPos {
			ex.byVar[p] = append(ex.byVar[p], participant{atom: ai, level: lvl})
		}
	}
	for d := range ex.byVar {
		if len(ex.byVar[d]) == 0 {
			return fmt.Errorf("genericjoin: variable %s (depth %d) not bound by any atom", gao[d], d)
		}
	}
	_, err = ex.run(0, rangesAll(atoms))
	return err
}

// atom is one query atom bound to its GAO-consistent flat relation: the
// relation with its columns sorted by GAO position, and the GAO position of
// each column.
type atom struct {
	rel    *relation.Relation
	varPos []int
}

// participant says atom `atom` constrains the current variable at trie
// level `level`.
type participant struct {
	atom  int
	level int
}

type exec struct {
	n       int
	atoms   []atom
	byVar   [][]participant
	binding []int64
	outPerm []int
	out     []int64
	emit    func([]int64) bool
	tick    *core.Ticker
}

// span is a row range of one atom's index consistent with the bindings so
// far.
type span struct {
	lo, hi int
}

func rangesAll(atoms []atom) []span {
	out := make([]span, len(atoms))
	for i, a := range atoms {
		out[i] = span{0, a.rel.Len()}
	}
	return out
}

// run implements Algorithm 1: intersect the candidate sets of every
// participating atom at depth d, then recurse per candidate with narrowed
// row ranges.
func (ex *exec) run(d int, spans []span) (bool, error) {
	if err := ex.tick.Tick(); err != nil {
		return false, err
	}
	parts := ex.byVar[d]
	// Build L by scanning the smallest participant's distinct values and
	// probing the others (the hash-set analogue of the leapfrog; skew-aware
	// per [10] because the smallest set drives).
	smallest := parts[0]
	smallestSize := width(ex, smallest, spans)
	for _, p := range parts[1:] {
		if w := width(ex, p, spans); w < smallestSize {
			smallest, smallestSize = p, w
		}
	}
	r := ex.atoms[smallest.atom].rel
	sp := spans[smallest.atom]
	for row := sp.lo; row < sp.hi; {
		v := r.Value(row, smallest.level)
		next := upper(r, smallest.level, row, sp.hi, v)
		ok := true
		for _, p := range parts {
			if p == smallest {
				continue
			}
			if !contains(ex, p, spans, v) {
				ok = false
				break
			}
		}
		if ok {
			ex.binding[d] = v
			// Narrow every participating atom's span to value v.
			childSpans := append([]span(nil), spans...)
			for _, p := range parts {
				pr := ex.atoms[p.atom].rel
				psp := childSpans[p.atom]
				lo := lower(pr, p.level, psp.lo, psp.hi, v)
				hi := upper(pr, p.level, lo, psp.hi, v)
				childSpans[p.atom] = span{lo, hi}
			}
			if d == ex.n-1 {
				if !ex.emitTuple() {
					return false, nil
				}
			} else {
				cont, err := ex.run(d+1, childSpans)
				if err != nil || !cont {
					return cont, err
				}
			}
		}
		row = next
	}
	return true, nil
}

func (ex *exec) emitTuple() bool {
	if ex.out == nil {
		ex.out = make([]int64, ex.n)
	}
	for g, v := range ex.outPerm {
		ex.out[v] = ex.binding[g]
	}
	return ex.emit(ex.out)
}

func width(ex *exec, p participant, spans []span) int {
	return spans[p.atom].hi - spans[p.atom].lo
}

func contains(ex *exec, p participant, spans []span, v int64) bool {
	r := ex.atoms[p.atom].rel
	sp := spans[p.atom]
	lo := lower(r, p.level, sp.lo, sp.hi, v)
	return lo < sp.hi && r.Value(lo, p.level) == v
}

// lower/upper are binary searches over a column within a row range (the
// range shares a prefix on earlier columns, so the column is sorted).
func lower(r *relation.Relation, col, lo, hi int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Value(mid, col) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func upper(r *relation.Relation, col, lo, hi int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Value(mid, col) <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
