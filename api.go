package repro

import (
	"errors"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/query"
)

// Typed failure kinds surfaced by Prepare, ParseQuery, and the one-shot
// helpers; branch with errors.Is.
var (
	// ErrUnknownRelation reports a query atom naming a relation the store's
	// database does not hold.
	ErrUnknownRelation = core.ErrUnknownRelation
	// ErrUnboundVar reports a query variable not covered by the supplied
	// attribute order (or not bound by any atom).
	ErrUnboundVar = core.ErrUnboundVar
	// ErrUnboundHeadVar reports a head variable or aggregated variable of a
	// rule-form query ("q(a, b) :- ...") that no body atom binds.
	ErrUnboundHeadVar = query.ErrUnboundHeadVar
	// ErrUnboundPredVar reports a comparison predicate over a variable no
	// body atom binds.
	ErrUnboundPredVar = query.ErrUnboundPredVar
	// ErrUnknownAlgorithm reports an Options.Algorithm outside the
	// registered set; Prepare validates eagerly, before engine selection.
	ErrUnknownAlgorithm = engine.ErrUnknownAlgorithm
)

// ErrUnsupportedQuery reports an execution a query cannot be given: a
// malformed Options.Shard, or a shard of a query whose leading attribute is
// not an output column.
var ErrUnsupportedQuery = errors.New("query unsupported by the requested execution")

// Algorithm names a join engine; the names match the paper's system labels
// (§5.1). The zero value selects LFTJ. Prepare rejects anything outside the
// registered set with ErrUnknownAlgorithm.
type Algorithm = engine.Algorithm

// Registered algorithms: Leapfrog Triejoin and Minesweeper. The paper's
// baselines run in internal/bench (go run ./cmd/benchtables).
const (
	LFTJ = engine.LFTJ
	MS   = engine.MS
)

// Algorithms lists every registered algorithm.
func Algorithms() []Algorithm { return engine.Algorithms() }

// GAOScore is the structural score the planner ranks candidate attribute
// orders by; Explanation carries the chosen order's and the runner-up's.
type GAOScore = hypergraph.OrderScore

// Query is a graph-pattern join query. Build one with the pattern
// constructors below or parse the paper's Datalog syntax with ParseQuery.
type Query = query.Query

// SyntaxError is the typed parse failure carrying the byte offset into the
// Datalog source and, when known, the enclosing atom's relation name;
// unwrap with errors.As to report positions to users.
type SyntaxError = query.SyntaxError

// Pattern constructors mirroring the paper's §5.1 benchmark queries, over
// its benchmark schema: "edge" (symmetric), "fwd" (the u<v orientation) and
// the node samples "v1".."v4".
var (
	// Triangles is the 3-clique query (each triangle counted once).
	Triangles = func() *Query { return query.Clique(3) }
	// Cliques returns the k-clique query.
	Cliques = query.Clique
	// Cycles returns the k-cycle query with the a<b<...<z orientation.
	Cycles = query.Cycle
	// Paths returns the k-path query between samples v1 and v2.
	Paths = query.Path
	// Trees returns the {1,2}-tree query.
	Trees = query.Tree
	// Comb returns the 2-comb query.
	Comb = query.Comb
	// Lollipops returns the {2,3}-lollipop query.
	Lollipops = query.Lollipop
)

// ParseQuery parses the Datalog-style syntax of §5.1, e.g.
// "v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)", without a schema to
// check it against (Store.ParseQuery checks). Rule heads may project and
// aggregate ("deg(a, count(b)) :- edge(a, b)"), atom terms may be integer
// constants, and bodies may carry comparison predicates ("a < b",
// "x >= 10"); malformed input fails with a positioned *query.SyntaxError.
func ParseQuery(name, src string) (*Query, error) { return query.Parse(name, src) }

// Options select and configure an engine. Algorithm is typed — use the
// exported constants (LFTJ, MS); string literals still assign for
// convenience, and Prepare rejects unknown names eagerly with
// ErrUnknownAlgorithm.
type Options struct {
	// Algorithm selects the engine: LFTJ or MS. Empty defaults to LFTJ.
	Algorithm Algorithm
	// Workers bounds parallelism (0 = all cores, 1 = sequential).
	Workers int
	// GAO overrides the global attribute order.
	GAO []string
	// Shard, when set, restricts execution to one part of the query's output
	// space — the per-host half of a distributed fan-out (the router package
	// sets it when preparing a query on each cluster host). See Shard.
	Shard *Shard
}

// Shard is part Part of Of (0 <= Part < Of) of a query's output space, cut
// on the leading GAO attribute: its values are divided into Of contiguous
// ranges, each holding an equal share of the attribute's level-0 index keys
// (the cut the §4.10 parallel jobs use). The cut is made from the data at
// every execution, from the database state the execution reads, so stores
// holding the same contents cut the same ranges, and some parts are empty
// when there are fewer keys than parts. Parts are disjoint and cover the
// domain: per-part counts sum to the unsharded count, and part 0's rows,
// then part 1's, and so on, are the unsharded stream in order. The attribute
// must partition the rows: be an output column — a group key for aggregate
// queries, so every group lands wholly inside one part (the global
// aggregates of an empty group-by head are reported by each part as a
// partial for the coordinator to fold) — or be pinned to a constant, in
// which case one part holds the whole result. Prepare rejects anything
// else, and an out-of-range Part, with ErrUnsupportedQuery; the planner's
// own orders always qualify.
type Shard = engine.Part

func (o Options) engineOptions() engine.Options {
	alg := o.Algorithm
	if alg == "" {
		alg = engine.LFTJ
	}
	eo := engine.Options{Algorithm: alg, Workers: o.Workers, GAO: o.GAO}
	if o.Shard != nil {
		sh := *o.Shard
		eo.Part = &sh
	}
	return eo
}

// ResolveGAO derives the structural global attribute order of the query
// under these options — Options.GAO, or hypergraph.ChooseGAO's, touching no
// data — which is the order a router cuts on and hands its hosts in
// Options.GAO. Prepare fixes the same order, except for an LFTJ query
// without a head and without a user order, whose order it prices on the
// data.
func ResolveGAO(q *Query, opts Options) ([]string, error) {
	return engine.ResolveGAO(opts.engineOptions(), q)
}

// ExecStats is the unified execution-counter surface every engine reports
// on: planning counters (plan-cache hits, GAO derivations, index bindings),
// per-run execution counters, and the engine-specific counters the paper's
// ablation analyses read (probes, memo hits, constraint inserts, subtree
// reuses for Minesweeper; leapfrog seeks for LFTJ).
type ExecStats = core.Stats
