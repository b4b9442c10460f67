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
// after construction and safe to share across goroutines: DB.ApplyDelta
// advances its bound indexes through new generations, and each execution
// builds its own iterator and memo state. A plan holds no generation: each
// execution is handed the one it reads — a transaction's (Lease.Pin), or the
// current one (Plan.Pin) — as an argument.
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

// reads reports whether the plan binds an index over the named relation.
func (p *Plan) reads(rel string) bool {
	for _, a := range p.Query.Atoms {
		if a.Rel == rel {
			return true
		}
	}
	return false
}

// PlanKey builds the plan-cache key for a query shape under one algorithm
// and (possibly empty) user-supplied GAO. variant
// distinguishes compilations of the same shape that planner toggles would
// change (e.g. Minesweeper with the skeleton idea disabled). The query's
// variable order is part of the key: two queries with the same atom list but
// different output orders (a parsed head reorders Vars) resolve different
// default GAOs and must not share a compilation. Extended queries render
// their head, inlined constants, predicates, and aggregates into q.String(),
// so projection, selection, and aggregation are all key dimensions.
func PlanKey(algorithm, variant string, userGAO []string, q *query.Query) string {
	var b strings.Builder
	b.WriteString(algorithm)
	b.WriteByte('|')
	b.WriteString(variant)
	b.WriteByte('|')
	b.WriteString(strings.Join(userGAO, ","))
	b.WriteByte('|')
	b.WriteString(strings.Join(q.Vars(), ","))
	b.WriteByte('|')
	b.WriteString(q.String())
	return b.String()
}

// maxCachedPlans bounds the plan cache so ad-hoc query streams with many
// distinct shapes cannot grow it without limit; eviction is arbitrary
// because any entry is equally cheap to recompile.
const maxCachedPlans = 1024

// CachedPlan returns the cached plan for key, if present, together with the
// database version to pass back to StorePlan on a miss.
func (db *DB) CachedPlan(key string) (*Plan, int64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.plans[key]
	return p, db.version, ok
}

// StorePlan caches a compiled plan under key. version must be the database
// version the compilation started from (returned by CachedPlan): if any
// relation was replaced while the plan was being built, the store is
// skipped — caching it would pin a pre-replacement snapshot that Add's
// invalidation sweep already ran past. Cached plans are dropped when Add
// replaces a relation they read.
func (db *DB) StorePlan(key string, p *Plan, version int64) {
	if p == nil || p.Query == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.version != version {
		return
	}
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
	return &Plan{
		Query:      q,
		Algorithm:  algorithm,
		GAO:        gao,
		Atoms:      atoms,
		InSkel:     inSkel,
		BetaCyclic: betaCyclic,
		Push:       push,
		db:         db,
	}, nil
}
