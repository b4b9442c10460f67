package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// ResolveGAO derives the structural global attribute order of the query
// under these options, without touching any data: Options.GAO, or else
// hypergraph.ChooseGAO's, which reads only the query's structure — so a
// coordinator computes it alone, cuts on its leading attribute and hands it
// to every host. Compile fixes the same order, except that it prices the
// order of an LFTJ query without a head and without Options.GAO on the data
// (pricedPlan). It is the
// one check on a user order: an unknown algorithm fails with
// ErrUnknownAlgorithm, an invalid query with its validation error, and an
// order that does not name every query variable exactly once with
// core.ErrUnboundVar.
func ResolveGAO(opts Options, q *query.Query) ([]string, error) {
	alg, err := ParseAlgorithm(string(opts.Algorithm))
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	gao := opts.GAO
	if gao == nil {
		gao, _ = hypergraph.ChooseGAO(q, string(alg))
		return gao, nil
	}
	idx := q.VarIndex()
	seen := make([]bool, len(idx))
	ok := len(gao) == len(seen)
	for _, v := range gao {
		i, in := idx[v]
		if ok = ok && in && !seen[i]; !ok {
			break
		}
		seen[i] = true
	}
	if !ok {
		return nil, fmt.Errorf("engine: GAO %v is not an order of the query variables %v: %w", gao, q.Vars(), core.ErrUnboundVar)
	}
	return gao, nil
}

// Compile is the one way to get a plan: it validates q, resolves the GAO
// (ResolveGAO, or for an LFTJ query without a head and without a user order
// the cheapest order priced on the data, pricedPlan) and, for Minesweeper,
// the skeleton (minesweeper.Skeleton), and binds the GAO-consistent
// indexes — or answers from the DB's plan cache. The cache key is the query shape × algorithm × user-supplied GAO,
// plus the skeleton toggle, which changes the compilation. No write evicts
// an entry: a write, DB.Add included, advances the indexes a plan binds and
// keeps them, so a cached plan reads the current contents. Counters for the
// compilation land on opts.Stats. An unknown algorithm fails with
// ErrUnknownAlgorithm before any index is bound.
func Compile(opts Options, q *query.Query, db *core.DB) (*core.Plan, error) {
	alg, err := ParseAlgorithm(string(opts.Algorithm))
	if err != nil {
		return nil, err
	}
	opts.Algorithm = alg
	variant := ""
	if alg == MS && opts.MS.DisableSkeleton {
		variant = "noskel"
	}
	key := core.PlanKey(string(alg), variant, opts.GAO, q)
	p, ok := db.CachedPlan(key)
	if ok {
		opts.Stats.Add(core.Stats{PlanCacheHits: 1})
		return p, nil
	}
	opts.Stats.Add(core.Stats{GAODerivations: 1})
	gao, err := ResolveGAO(opts, q)
	if err != nil {
		return nil, err
	}
	if alg == LFTJ && opts.GAO == nil {
		plan, err := pricedPlan(q, db)
		if err != nil {
			return nil, err
		}
		if plan != nil {
			db.StorePlan(key, plan)
			opts.Stats.Add(core.Stats{IndexBindings: int64(len(plan.Atoms)), PlanCacheMisses: 1})
			return plan, nil
		}
	}
	betaCyclic := !hypergraph.BetaAcyclic(q.Atoms)
	var inSkel []bool
	if alg == MS {
		inSkel = minesweeper.Skeleton(q, gao, betaCyclic, opts.MS.DisableSkeleton)
	}
	plan, err := core.NewPlan(q, db, string(alg), gao, inSkel, betaCyclic, "", opts.Stats)
	if err != nil {
		return nil, err
	}
	db.StorePlan(key, plan)
	opts.Stats.Add(core.Stats{PlanCacheMisses: 1})
	return plan, nil
}
