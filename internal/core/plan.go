package core

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
)

// Plan is a compiled query: the query fixed against a concrete GAO with its
// GAO-consistent atom indexes already bound (§4.1's physical design, derived
// once). Engines that execute plans skip validation, attribute-order
// resolution, and index binding entirely on every run. A Plan is immutable
// after construction and safe to share across goroutines: every write
// (DB.ApplyDelta, DB.Add) advances its bound indexes through new
// generations, and each execution builds its own iterator and memo state.
// A plan holds no generation: each execution is handed the one it reads —
// a transaction's (Lease.Pin), or the current one (Plan.Pin) — as an
// argument.
type Plan struct {
	// Query is the compiled query.
	Query *query.Query
	// Algorithm is the engine the plan was compiled for.
	Algorithm string
	// GAO is the resolved global attribute order.
	GAO []string
	// Atoms holds the GAO-consistent index binding of each query atom, in
	// q.Atoms order.
	Atoms []AtomIndex
	// InSkel marks the atoms in Minesweeper's skeleton (§4.9); nil for an
	// LFTJ plan.
	InSkel []bool
	// BetaCyclic records whether the query is β-cyclic (drives the §4.10
	// parallel-granularity default and Minesweeper's skeleton split).
	BetaCyclic bool
	// Push carries the compiled selection bounds, residual predicates, and
	// output shape (Emit/Keys) of an extended query; nil for plain joins.
	Push *Pushdown
	// Pricing records how GAO was chosen on the data; nil when it was not.
	Pricing *Pricing
	// Memo[d], in an LFTJ plan's count, is the GAO position whose value
	// keys the count memo of the subtree below depth d, or -1 where depth d
	// keeps none; nil when no depth keeps one (countMemo).
	Memo []int
	// db is the database the atoms are bound in.
	db *DB
}

// Pin returns the database's current generation, for an execution outside a
// transaction: engine.Run calls it once, at the start of the execution.
func (p *Plan) Pin() *Generation { return p.db.Pin() }

// Range is a half-open range [Lo, Hi) of first-GAO-variable values: the
// §4.10 part or job one execution of a plan is restricted to.
type Range struct{ Lo, Hi int64 }

// FullRange is the range every part and job is cut from: the storage
// domain, with -1 below every value.
var FullRange = Range{-1, relation.PosInf}

// Empty reports whether the range holds no value.
func (r Range) Empty() bool { return r.Lo >= r.Hi }

// PlanKey builds the plan-cache key for a query shape under one algorithm
// and (possibly empty) user-supplied GAO. variant
// distinguishes compilations of the same shape that planner toggles would
// change (e.g. Minesweeper with the skeleton idea disabled). The query's
// variable order is part of the key: two queries with the same atom list but
// different output orders (a parsed head reorders Vars) resolve different
// default GAOs and must not share a compilation. Extended queries render
// their head, inlined constants, predicates, and aggregates into q.String(),
// so projection, selection, and aggregation are all key dimensions. Whether
// the query has a head is one too: a head covering every variable renders
// like the bare body, but only the bare body has its order priced on the
// data (engine.Compile).
func PlanKey(algorithm, variant string, userGAO []string, q *query.Query) string {
	body := q.String()
	n := len("head|") + len(algorithm) + len(variant) + len(body) + 3
	for _, v := range userGAO {
		n += len(v) + 1
	}
	for _, v := range q.Vars() {
		n += len(v) + 1
	}
	var b strings.Builder
	b.Grow(n)
	if q.Headed() {
		b.WriteString("head|")
	}
	b.WriteString(algorithm)
	b.WriteByte('|')
	b.WriteString(variant)
	b.WriteByte('|')
	writeList(&b, userGAO)
	b.WriteByte('|')
	writeList(&b, q.Vars())
	b.WriteByte('|')
	b.WriteString(body)
	return b.String()
}

// writeList writes vs to b, comma-separated.
func writeList(b *strings.Builder, vs []string) {
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v)
	}
}

// maxCachedPlans bounds the plan cache so ad-hoc query streams with many
// distinct shapes cannot grow it without limit; eviction is arbitrary
// because any entry is equally cheap to recompile.
const maxCachedPlans = 1024

// CachedPlan returns the cached plan for key, if present.
func (db *DB) CachedPlan(key string) (*Plan, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.plans[key]
	return p, ok
}

// StorePlan caches a compiled plan under key. A cached plan stays valid for
// the database's life: no write replaces the indexes it binds.
func (db *DB) StorePlan(key string, p *Plan) {
	if p == nil || p.Query == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.plans) >= maxCachedPlans {
		for k := range db.plans {
			delete(db.plans, k)
			break
		}
	}
	db.plans[key] = p
}

// NewPlan compiles a query for an engine: validates it, checks the GAO
// covers every variable, and binds the GAO-consistent indexes (an atom whose
// arity disagrees with its relation's fails with ErrArityMismatch). Counters
// for the work performed are added to sc (which may be nil). NewPlan does
// not consult the plan cache — see the engine package for the cached
// compilation entry point.
//
// The ignored string slot once named an index backend; the frozen
// benchmark/probes.go still passes "" in it.
func NewPlan(q *query.Query, db *DB, algorithm string, gao []string, inSkel []bool, betaCyclic bool, _ string, sc *StatsCollector) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(gao) != q.NumVars() {
		return nil, fmt.Errorf("core: GAO %v does not cover the %d query variables: %w", gao, q.NumVars(), ErrUnboundVar)
	}
	atoms, err := BindAtoms(q, db, gao)
	if err != nil {
		return nil, err
	}
	push, err := CompilePushdown(q, gao)
	if err != nil {
		return nil, err
	}
	sc.Add(Stats{IndexBindings: int64(len(atoms))})
	p := &Plan{
		Query:      q,
		Algorithm:  algorithm,
		GAO:        gao,
		Atoms:      atoms,
		InSkel:     inSkel,
		BetaCyclic: betaCyclic,
		Push:       push,
		db:         db,
	}
	p.Memo = countMemo(p)
	return p, nil
}
