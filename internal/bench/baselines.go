package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/genericjoin"
	"repro/internal/graphengine"
	"repro/internal/hybrid"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/yannakakis"
)

// The systems the paper measures the LogicBlox engines against (§5.1), plus
// two implementation ablations. They run only here: the serving surface
// knows engine.LFTJ and engine.MS alone.
const (
	// PSQL and MonetDB are the pairwise-join baselines: a Selinger-style DP
	// row store and a greedy bulk column store.
	PSQL    engine.Algorithm = "psql"
	MonetDB engine.Algorithm = "monetdb"
	// Yannakakis is the classical linear-time algorithm for α-acyclic joins.
	Yannakakis engine.Algorithm = "yannakakis"
	// GraphLab is a specialised parallel clique counter.
	GraphLab engine.Algorithm = "graphlab"
	// GenericJoin is the paper's Algorithm 1 — the recursive,
	// intersection-materialising formulation of a worst-case-optimal join.
	GenericJoin engine.Algorithm = "genericjoin"
	// Hybrid is the paper's lb/hybrid (§4.12): Minesweeper on the acyclic
	// part of a lollipop, LFTJ on its clique.
	Hybrid engine.Algorithm = "hybrid"
)

// errPlainJoinsOnly reports an extended query (projection, predicates or
// aggregates) given to a baseline: the baselines join whole atoms and would
// count the unprojected, unfiltered result.
var errPlainJoinsOnly = errors.New("bench: baseline engines run plain natural joins only")

// counter is what a cell runs: the Count of a baseline engine, or of
// compiled for the serving engines.
type counter interface {
	Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error)
}

// compiled counts a plan through engine.Run; its query and database
// arguments are the plan's own.
type compiled struct {
	plan *core.Plan
	opts engine.Options
}

func (c *compiled) Count(ctx context.Context, _ *query.Query, _ *core.DB) (int64, error) {
	return engine.Run(ctx, c.plan, nil, &c.opts, nil)
}

// prepare returns the counter for one cell: a compiled plan for lftj and ms,
// a baseline otherwise.
func prepare(opts engine.Options, q *query.Query, db *core.DB) (counter, error) {
	if opts.Algorithm == engine.LFTJ || opts.Algorithm == engine.MS {
		plan, err := engine.Compile(opts, q, db)
		if err != nil {
			return nil, err
		}
		return &compiled{plan: plan, opts: opts}, nil
	}
	return baseline(opts, q)
}

// baseline returns the named baseline engine. It validates the query up
// front, as engine.Compile does for the serving engines.
func baseline(opts engine.Options, q *query.Query) (counter, error) {
	if q.Extended() {
		return nil, fmt.Errorf("%w: %s on query %q", errPlainJoinsOnly, opts.Algorithm, q.Name)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch opts.Algorithm {
	case PSQL:
		return pairwise.Engine{Opts: pairwise.Options{Flavor: pairwise.DP}}, nil
	case MonetDB:
		return pairwise.Engine{Opts: pairwise.Options{Flavor: pairwise.Greedy}}, nil
	case Yannakakis:
		return yannakakis.Engine{}, nil
	case GraphLab:
		return graphengine.Engine{Workers: opts.Workers}, nil
	case GenericJoin:
		return genericjoin.Engine{GAO: opts.GAO}, nil
	case Hybrid:
		return hybrid.Engine{}, nil
	}
	return nil, fmt.Errorf("bench: %w %q", engine.ErrUnknownAlgorithm, opts.Algorithm)
}
