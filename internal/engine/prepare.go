package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// Prepare compiles q once for the configured engine and returns the engine
// pinned to the compiled plan: validation, GAO resolution, and index binding
// happen here (or are answered from the DB's plan cache) and never again on
// Count/Enumerate. Counters for the compilation land on opts.Stats.
//
// The algorithm name is validated eagerly here with a typed error
// (ErrUnknownAlgorithm) — an unknown name never falls through to engine
// selection or index binding.
func Prepare(opts Options, q *query.Query, db *core.DB) (core.Engine, *core.Plan, error) {
	alg, err := ParseAlgorithm(string(opts.Algorithm))
	if err != nil {
		return nil, nil, err
	}
	opts.Algorithm = alg
	plan, err := CompilePlan(opts, q, db)
	if err != nil {
		return nil, nil, err
	}
	opts.Plan = plan
	e, err := New(opts)
	return e, plan, err
}

// ResolveGAO derives the global attribute order Prepare would fix for the
// query under these options, without touching any data: the order is
// Options.GAO, or else hypergraph.ChooseGAO's, which reads only the query's
// structure — so a coordinator computes the very order a remote host will
// execute under and partitions or merges on its leading attribute.
func ResolveGAO(opts Options, q *query.Query) ([]string, error) {
	alg, err := ParseAlgorithm(string(opts.Algorithm))
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if gao := opts.GAO; gao != nil {
		if len(gao) != q.NumVars() {
			return nil, fmt.Errorf("engine: GAO %v does not cover the %d query variables: %w", gao, q.NumVars(), core.ErrUnboundVar)
		}
		return gao, nil
	}
	gao, _ := hypergraph.ChooseGAO(q, string(alg))
	return gao, nil
}

// CompilePlan resolves the GAO and binds the GAO-consistent indexes for a
// plan-aware algorithm (LFTJ, Minesweeper), consulting and populating the
// DB's plan cache. The cache key is the query shape × algorithm ×
// user-supplied GAO (plus planner toggles that change compilation); entries
// are dropped when DB.Add replaces a relation the plan reads.
func CompilePlan(opts Options, q *query.Query, db *core.DB) (*core.Plan, error) {
	alg := opts.Algorithm
	if alg == "" {
		alg = LFTJ
	}
	opts.Algorithm = alg
	variant := ""
	if alg == MS && opts.MS.DisableSkeleton {
		variant = "noskel"
	}
	key := core.PlanKey(string(alg), variant, opts.GAO, q)
	p, version, ok := db.CachedPlan(key)
	if ok {
		opts.Stats.Add(core.Stats{PlanCacheHits: 1})
		return p, nil
	}
	opts.Stats.Add(core.Stats{GAODerivations: 1})
	plan, err := compile(opts, q, db, opts.Stats)
	if err != nil {
		return nil, err
	}
	db.StorePlan(key, plan, version)
	opts.Stats.Add(core.Stats{PlanCacheMisses: 1})
	return plan, nil
}

// compile resolves the GAO (and Minesweeper's skeleton) and binds the
// indexes, bypassing the plan cache; binding counters land on sc.
func compile(opts Options, q *query.Query, db *core.DB, sc *core.StatsCollector) (*core.Plan, error) {
	gao, err := ResolveGAO(opts, q)
	if err != nil {
		return nil, err
	}
	var inSkel []bool
	betaCyclic := false
	if opts.Algorithm == MS {
		msOpts := opts.MS
		msOpts.GAO = gao
		if gao, inSkel, betaCyclic, err = minesweeper.ResolvePlan(q, msOpts); err != nil {
			return nil, err
		}
	} else {
		_, acyclic := hypergraph.FindChainGAO(q.Vars(), q.Atoms)
		betaCyclic = !acyclic
	}
	return core.NewPlan(q, db, string(opts.Algorithm), gao, inSkel, betaCyclic, "", sc)
}
