package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// ResolveGAO derives the global attribute order Compile would fix for the
// query under these options, without touching any data: the order is
// Options.GAO, or else hypergraph.ChooseGAO's, which reads only the query's
// structure — so a coordinator computes the very order a remote host will
// execute under and partitions or merges on its leading attribute. It is the
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
// (ResolveGAO) and, for Minesweeper, the skeleton (minesweeper.Skeleton),
// and binds the GAO-consistent indexes — or answers from the DB's plan
// cache. The cache key is the query shape × algorithm × user-supplied GAO,
// plus the skeleton toggle, which changes the compilation; entries are
// dropped when DB.Add replaces a relation the plan reads. Counters for the
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
	p, version, ok := db.CachedPlan(key)
	if ok {
		opts.Stats.Add(core.Stats{PlanCacheHits: 1})
		return p, nil
	}
	opts.Stats.Add(core.Stats{GAODerivations: 1})
	gao, err := ResolveGAO(opts, q)
	if err != nil {
		return nil, err
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
	db.StorePlan(key, plan, version)
	opts.Stats.Add(core.Stats{PlanCacheMisses: 1})
	return plan, nil
}
