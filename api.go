package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/incremental"
	"repro/internal/query"
	"repro/internal/recursive"
	"repro/internal/relation"
)

// Model names re-exported for graph generation.
const (
	ErdosRenyi     = dataset.ErdosRenyi
	BarabasiAlbert = dataset.BarabasiAlbert
	HolmeKim       = dataset.HolmeKim
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

// Pattern constructors mirroring the paper's §5.1 benchmark queries.
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
// "v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)". Relations available
// on a Graph: "edge" (symmetric), "fwd" (u<v orientation), "v1".."v4"
// (node samples). Rule heads may project and aggregate
// ("deg(a, count(b)) :- edge(a, b)"), atom terms may be integer constants,
// and bodies may carry comparison predicates ("a < b", "x >= 10");
// malformed input fails with a positioned *query.SyntaxError.
func ParseQuery(name, src string) (*Query, error) { return query.Parse(name, src) }

// Graph is an undirected graph plus the benchmark database schema derived
// from it: the symmetric "edge" relation, the oriented "fwd" relation, and
// the node samples v1..v4. It is a thin compatibility wrapper over Store —
// the benchmark schema is one canned schema — so everything a Store offers
// (ReadTxn, Batch, schema-checked ParseQuery) is available through Store().
// Graph methods are safe for concurrent use (queries through the store
// serialize on the database; the wrapper's own vertex/edge accounting is
// guarded by its mutex).
type Graph struct {
	g *dataset.Graph
	s *Store

	// mu guards the wrapped graph's accounting (g.Edges, g.N, edgeIdx)
	// against concurrent ApplyEdges/Nodes/Edges/SetSelectivity calls.
	mu sync.Mutex
	// edgeIdx maps each oriented edge to its position in g.Edges; built on
	// the first ApplyEdges so incremental writes maintain the accounting in
	// time proportional to the batch instead of re-scanning the edge list.
	edgeIdx map[[2]int64]int
}

// NewGraph builds a graph from an undirected edge list. Vertex ids must be
// non-negative; self-loops are dropped and duplicates merged. Samples
// default to every vertex (selectivity 1).
func NewGraph(edges [][2]int64) *Graph {
	var n int64
	for _, e := range edges {
		if e[0] >= n {
			n = e[0] + 1
		}
		if e[1] >= n {
			n = e[1] + 1
		}
	}
	g := &dataset.Graph{N: int(n)}
	seen := make(map[[2]int64]bool, len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if seen[[2]int64{u, v}] {
			continue
		}
		seen[[2]int64{u, v}] = true
		g.Edges = append(g.Edges, [2]int64{u, v})
	}
	return &Graph{g: g, s: newStoreOver(dataset.DB(g, 1, 1))}
}

// GenerateGraph produces a deterministic synthetic graph (see
// internal/dataset for the models). Samples default to selectivity 1.
func GenerateGraph(model dataset.Model, nodes, edges int, seed int64) *Graph {
	g := dataset.Generate(model, nodes, edges, seed)
	return &Graph{g: g, s: newStoreOver(dataset.DB(g, 1, seed))}
}

// Dataset builds one of the paper's 15 benchmark datasets by name (synthetic
// stand-ins for the SNAP graphs; see DESIGN.md §5).
func Dataset(name string) (*Graph, error) {
	spec, err := dataset.Lookup(name)
	if err != nil {
		return nil, err
	}
	g := spec.Build()
	return &Graph{g: g, s: newStoreOver(dataset.DB(g, 1, spec.Seed))}, nil
}

// Nodes returns the vertex count.
func (g *Graph) Nodes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.g.N
}

// Edges returns the undirected edge count.
func (g *Graph) Edges() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.g.Edges)
}

// SetSelectivity redraws all four node samples with the paper's protocol:
// each vertex is selected with probability 1/s. All four relations are
// replaced in one atomic registration, so a concurrent ReadTxn/Batch
// snapshot observes one sample generation, never a mix.
func (g *Graph) SetSelectivity(s int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	samples := make(map[string][]int64, 4)
	g.mu.Lock()
	for _, name := range []string{query.Sample1, query.Sample2, query.Sample3, query.Sample4} {
		samples[name] = g.g.Sample(rng, s)
	}
	g.mu.Unlock()
	dataset.ReplaceNamedSamples(g.s.db, samples)
}

// SetSamples sets the v1 and v2 samples explicitly (Figures 3–5 use
// absolute sample sizes), replacing both atomically.
func (g *Graph) SetSamples(v1, v2 []int64) {
	dataset.ReplaceSamples(g.s.db, v1, v2)
}

// Store returns the underlying general-schema store: the benchmark schema
// (edge, fwd, v1..v4) as ordinary store relations. Use it for snapshot
// read-transactions (ReadTxn), batched execution (Batch), and schema-checked
// parsing over the benchmark relations. For writes, use the Graph methods
// (ApplyEdges, SetSelectivity, SetSamples): a raw Store.Apply on "edge" or
// "fwd" updates only that one relation and silently breaks the schema's
// invariants (edge symmetric, fwd its u<v orientation) that every benchmark
// query assumes, and a raw Store.Load on any benchmark relation replaces it
// without maintaining the wrapper's vertex/edge accounting — Nodes, Edges,
// and the SetSelectivity sampling population would go stale.
func (g *Graph) Store() *Store { return g.s }

// ApplyEdges inserts and removes undirected edges through the incremental
// write path, maintaining the schema invariants: both directions land in
// "edge" and the u<v orientation in "fwd" — applied atomically under one
// database lock, so a concurrent ReadTxn/Batch snapshot can never observe
// one relation updated and not the other — and the wrapped graph's vertex
// and edge accounting (Nodes, Edges, the population SetSelectivity samples
// from) follows the writes. Self-loops are dropped; an edge on both sides
// of one batch resolves as delete-after-insert. Like Store.Apply, it keeps
// prepared handles serving current data.
// (CountView.ApplyEdges additionally corrects a maintained count; this is
// the view-less counterpart.)
func (g *Graph) ApplyEdges(insert, remove [][2]int64) error {
	if err := checkEdgeDomain(insert, remove); err != nil {
		return err
	}
	// The database write and the accounting update form one critical
	// section: a conflicting concurrent batch cannot interleave between
	// them and desync the wrapper from the stored relations.
	g.mu.Lock()
	defer g.mu.Unlock()
	err := g.s.applyDeltas([]core.DeltaBatch{
		{Name: query.Edge, Inserts: incremental.Orient(insert, false), Deletes: incremental.Orient(remove, false)},
		{Name: query.Fwd, Inserts: incremental.Orient(insert, true), Deletes: incremental.Orient(remove, true)},
	})
	if err != nil {
		return err
	}
	g.applyDerivedLocked(insert, remove)
	return nil
}

// The wrapper accounting (g.g.Edges, g.g.N, edgeIdx) is maintained in time
// proportional to the batch: the oriented-edge index is built once (on the
// first write) and updated incrementally after that. The vertex count only
// grows — removing an edge does not retire its endpoints. Both edge write
// paths (Graph.ApplyEdges and CountView.ApplyEdges) land through
// core.CanonicalDelta semantics — delete-after-insert, an edge on both
// sides of one batch never lands — so one mirroring helper
// (applyDerivedLocked) serves them both. All these helpers run under g.mu.

func (g *Graph) ensureEdgeIdxLocked() {
	if g.edgeIdx != nil {
		return
	}
	g.edgeIdx = make(map[[2]int64]int, len(g.g.Edges))
	for i, e := range g.g.Edges {
		g.edgeIdx[e] = i
	}
}

// checkEdgeDomain validates an edge batch's vertex ids against the storage
// domain before any relation is touched, so both edge write paths
// (Graph.ApplyEdges and CountView.ApplyEdges) report typed errors instead
// of tripping the storage layer's panic.
func checkEdgeDomain(insert, remove [][2]int64) error {
	for _, batch := range [2]struct {
		op    string
		edges [][2]int64
	}{{"insert", insert}, {"delete", remove}} {
		for _, e := range batch.edges {
			if e[0] < 0 || e[0] >= relation.PosInf || e[1] < 0 || e[1] >= relation.PosInf {
				return fmt.Errorf("repro: %w: %s of edge %v (vertex ids must be in [0, %d))",
					ErrValueOutOfRange, batch.op, e, relation.PosInf)
			}
		}
	}
	return nil
}

// orientEdge normalizes an undirected edge to its u<v form; ok is false for
// self-loops.
func orientEdge(e [2]int64) (oe [2]int64, ok bool) {
	u, v := e[0], e[1]
	if u == v {
		return oe, false
	}
	if u > v {
		u, v = v, u
	}
	return [2]int64{u, v}, true
}

func (g *Graph) insertEdgeLocked(oe [2]int64) {
	if _, ok := g.edgeIdx[oe]; ok {
		return
	}
	g.edgeIdx[oe] = len(g.g.Edges)
	g.g.Edges = append(g.g.Edges, oe)
	if int(oe[1])+1 > g.g.N {
		g.g.N = int(oe[1]) + 1
	}
}

func (g *Graph) removeEdgeLocked(oe [2]int64) {
	i, ok := g.edgeIdx[oe]
	if !ok {
		return
	}
	// Swap-remove: the edge list's order carries no meaning.
	last := len(g.g.Edges) - 1
	g.g.Edges[i] = g.g.Edges[last]
	g.edgeIdx[g.g.Edges[i]] = i
	g.g.Edges = g.g.Edges[:last]
	delete(g.edgeIdx, oe)
}

// applyDerivedLocked mirrors ApplyDeltas/CanonicalDelta semantics
// (delete-after-insert: an edge on both sides never lands and must not grow
// the accounting or the vertex count).
func (g *Graph) applyDerivedLocked(insert, remove [][2]int64) {
	g.ensureEdgeIdxLocked()
	removed := make(map[[2]int64]bool, len(remove))
	for _, e := range remove {
		if oe, ok := orientEdge(e); ok {
			removed[oe] = true
		}
	}
	for _, e := range insert {
		if oe, ok := orientEdge(e); ok && !removed[oe] {
			g.insertEdgeLocked(oe)
		}
	}
	for _, e := range remove {
		if oe, ok := orientEdge(e); ok {
			g.removeEdgeLocked(oe)
		}
	}
}

// Prepare compiles the query against this graph for the configured engine;
// see Store.Prepare.
func (g *Graph) Prepare(q *Query, opts Options) (*Prepared, error) {
	return g.s.Prepare(q, opts)
}

// DB exposes the underlying database (for the benchmark harness).
func (g *Graph) DB() *core.DB { return g.s.db }

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

// ResolveGAO derives the global attribute order Prepare would fix for the
// query under these options — purely structural, touching no data, so a
// coordinator can compute the order remote hosts will execute under and
// partition or merge on its leading attribute.
func ResolveGAO(q *Query, opts Options) ([]string, error) {
	return engine.ResolveGAO(opts.engineOptions(), q)
}

// Count evaluates the query on the graph and returns the number of results
// (all the paper's benchmark queries are counts, §5.1). It is a one-shot
// convenience over Prepare — repeated executions of the same query should
// hold a Prepared handle instead.
func Count(ctx context.Context, g *Graph, q *Query, opts Options) (int64, error) {
	p, err := g.Prepare(q, opts)
	if err != nil {
		return 0, err
	}
	return p.Count(ctx)
}

// Enumerate streams result tuples in output order (head variables then any
// aggregate values; q.Vars() order for plain queries); emit returns false to
// stop early. It is a one-shot convenience over Prepare.
func Enumerate(ctx context.Context, g *Graph, q *Query, opts Options, emit func([]int64) bool) error {
	p, err := g.Prepare(q, opts)
	if err != nil {
		return err
	}
	return p.Enumerate(ctx, emit)
}

// AGMBound returns the Atserias–Grohe–Marx worst-case output bound of the
// query on this graph's relation sizes (paper Appendix A) — the quantity
// worst-case-optimal engines are optimal against.
func AGMBound(g *Graph, q *Query) (float64, error) {
	return g.s.AGMBound(q)
}

// ExecStats is the unified execution-counter surface every engine reports
// on: planning counters (plan-cache hits, GAO derivations, index bindings),
// per-run execution counters, and the engine-specific counters the paper's
// ablation analyses read (probes, memo hits, constraint inserts, subtree
// reuses for Minesweeper; leapfrog seeks for LFTJ).
type ExecStats = core.Stats

// CountWithStats evaluates the query once and returns the count together
// with its execution counters. When both Algorithm and Workers are left
// zero it defaults to "ms" (the historical behavior of this function), and
// an ms run with Workers zero — defaulted or explicit — runs sequentially,
// because the ablation counters are only deterministic on a sequential
// Minesweeper run (partitioned runs probe partition boundaries too). A
// caller who sets only Workers gets the normal default engine (lftj) on
// those workers — no silent rerouting to ms. For anything beyond a one-shot
// measurement, hold a Prepared handle and read Stats() to aggregate across
// executions.
func CountWithStats(ctx context.Context, g *Graph, q *Query, opts Options) (int64, ExecStats, error) {
	if opts.Algorithm == "" && opts.Workers == 0 {
		opts.Algorithm = MS
	}
	if opts.Algorithm == MS && opts.Workers == 0 {
		opts.Workers = 1
	}
	p, err := g.Prepare(q, opts)
	if err != nil {
		return 0, ExecStats{}, err
	}
	n, err := p.Count(ctx)
	return n, p.Stats(), err
}

// CountView is a materialized pattern count maintained incrementally under
// edge updates (the paper's §3 motivation: LogicBlox's incrementally
// maintained materialized views).
type CountView struct {
	inner *incremental.GraphView
	g     *Graph
}

// MaintainCount materializes Count(q) over the graph and keeps it current.
// On a durable store the view's maintenance batches route through the
// store's write-ahead log: each ApplyEdges is one logged record, fsynced
// like any other write.
func MaintainCount(ctx context.Context, g *Graph, q *Query) (*CountView, error) {
	v, err := incremental.NewGraphView(ctx, q, g.s.db)
	if err != nil {
		return nil, err
	}
	v.SetApply(g.s.applyDeltas)
	return &CountView{inner: v, g: g}, nil
}

// Count returns the maintained count.
func (v *CountView) Count() int64 { return v.inner.Count() }

// Stats returns the view's accumulated planning and execution counters. The
// view compiles its delta queries once: GAODerivations stays at 1 across
// arbitrarily many ApplyEdges batches.
func (v *CountView) Stats() ExecStats { return v.inner.Stats() }

// ApplyEdges inserts and removes undirected edges, updating the graph's
// relations and the maintained count with delta queries. The correction is
// computed entirely against the pre-update state, then "edge" and "fwd"
// land together through one atomic apply — exactly like Graph.ApplyEdges, a
// concurrent ReadTxn/Batch snapshot observes either the whole batch or none
// of it, an error during correction leaves the store untouched, and on a
// durable store the maintenance batch is one write-ahead log record. The
// update semantics match every other write path: an edge on both sides of
// one batch resolves as delete-after-insert.
func (v *CountView) ApplyEdges(ctx context.Context, insert, remove [][2]int64) error {
	if err := checkEdgeDomain(insert, remove); err != nil {
		return err
	}
	v.g.mu.Lock()
	defer v.g.mu.Unlock()
	if err := v.inner.ApplyEdges(ctx, insert, remove); err != nil {
		return err
	}
	v.g.applyDerivedLocked(insert, remove)
	return nil
}

// MaterializeTransitiveClosure computes tc(edge) with semi-naive recursion
// (the paper's §6 future work) and registers it as relation "tc", queryable
// from either engine, e.g. ParseQuery("reach", "v1(a), tc(a, b), v2(b)").
func MaterializeTransitiveClosure(ctx context.Context, g *Graph) error {
	return recursive.RegisterTC(ctx, g.s.db)
}
