// Package incremental maintains materialized pattern-count views under
// edge insertions and deletions. It is not served: it lives beside the
// benchmark harness because its benchmark (BenchmarkViewMaintainAndServe)
// keeps measuring what it buys over re-counting through a prepared handle
// that follows the writes. The paper motivates LogicBlox's adoption
// of optimal joins partly through incrementally maintained materialized
// views ("LogicBlox encourages the use of materialized views that are
// incrementally maintained", §3, citing Veldhuizen's incremental LFTJ
// [14]); this package implements the classical delta-query approach via
// multilinearity. An update batch takes each relation R → F = (R ∖ D) ∪ I,
// with D the deletes actually present and I the inserts actually absent
// (core.DB.CanonicalDelta's normal form), so pointwise
//
//	χ_F = χ_R − χ_D + χ_I,
//
// and since a join count is multilinear in every atom occurrence jointly,
//
//	Q(F, ...) = Σ_a (−1)^{#D-choices in a} · Q[a],
//
// summed over all assignments a of each occurrence to base/D/I — every term
// evaluated against the PRE-update database with D and I registered as tiny
// scratch relations. The correction (the sum over non-all-base assignments,
// each term a small join with Δ-bound atoms keeping it tiny) is therefore
// computed entirely before anything is applied, and the whole batch — every
// relation's inserts and deletes together — then lands through ONE atomic
// core.DB.ApplyDeltas call: no reader can observe a mid-batch state and no
// error path leaves the database partially updated.
//
// The atomic apply folds each batch into the cached indexes' delta overlays
// (relation.Overlay) in time proportional to the small log rather than an
// index rebuild, so the compiled delta plans — and the physical indexes they
// bind — survive arbitrarily many batches. Only the tiny Δ relations' atoms
// are re-bound per batch.
package incremental

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lftj"
	"repro/internal/query"
	"repro/internal/relation"
)

// insSuffix and delSuffix name the scratch delta relations registered in
// the database during a correction pass: rel+"@ins" holds the batch's
// effective insertions into rel, rel+"@del" its effective deletions. The
// "@" keeps them outside the identifier space the public Store accepts, so
// they can never collide with a user relation.
const (
	insSuffix = "@ins"
	delSuffix = "@del"
)

// isScratch reports whether an atom references a per-batch scratch delta
// relation (those atoms are re-bound on every batch; base atoms are not).
func isScratch(rel string) bool {
	return strings.HasSuffix(rel, insSuffix) || strings.HasSuffix(rel, delSuffix)
}

// termBudget bounds the number of correction terms one update batch may
// expand into (3^m − 1 assignments for m varying occurrences, before
// empty-side pruning).
const termBudget = 1 << 20

// View is a maintained count of a query over a database. The delta queries
// it evaluates per update batch are planned once: the GAO and the per-mask
// term queries are derived at construction (or on a relation's first
// update), and the compiled plans themselves are cached across batches —
// ApplyDelta keeps their bound indexes current, so per batch only the delta
// relation's atoms are re-bound.
type View struct {
	q      *query.Query
	db     *core.DB
	count  int64
	gao    []string
	gaoPos map[string]int
	// occ[rel] lists the atom indices referencing rel.
	occ map[string][]int
	// terms caches correction-term queries by assignment signature (one
	// byte per atom: base/del/ins), so a recurring batch shape reuses the
	// same *query.Query — and through it the same cached plan.
	terms map[string]*query.Query
	// plans caches compiled plans per term query; valid while dbVersion
	// matches the database's mutation counter as tracked through the view's
	// own updates.
	plans     map[*query.Query]*core.Plan
	dbVersion int64
	sc        *core.StatsCollector
}

// NewView computes the initial count and returns the maintained view.
func NewView(ctx context.Context, q *query.Query, db *core.DB) (*View, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	gao := q.Vars()
	v := &View{
		q:      q,
		db:     db,
		gao:    gao,
		gaoPos: core.GAOPositions(gao),
		occ:    make(map[string][]int),
		terms:  make(map[string]*query.Query),
		plans:  make(map[*query.Query]*core.Plan),
		sc:     &core.StatsCollector{},
	}
	v.sc.Add(core.Stats{GAODerivations: 1})
	v.dbVersion = db.Version()
	n, err := v.run(ctx, q)
	if err != nil {
		return nil, err
	}
	v.count = n
	for i, a := range q.Atoms {
		v.occ[a.Rel] = append(v.occ[a.Rel], i)
	}
	return v, nil
}

// run evaluates one query (the view query or a delta term) with the
// worst-case-optimal engine under the view's fixed GAO.
func (v *View) run(ctx context.Context, q *query.Query) (int64, error) {
	plan, err := v.planFor(q)
	if err != nil {
		return 0, err
	}
	v.sc.Add(core.Stats{Executions: 1})
	return lftj.Run(ctx, plan, plan.Pin(), core.FullRange, v.sc, nil)
}

// planFor returns a plan for q. The base compilation is cached across
// batches (the atomic delta apply keeps its bound indexes current in place)
// and only atoms over @ins/@del scratch relations are re-bound.
func (v *View) planFor(q *query.Query) (*core.Plan, error) {
	if ver := v.db.Version(); ver != v.dbVersion {
		// The database changed outside this view's own updates; cached
		// plans may bind replaced indexes. Drop and recompile.
		v.plans = make(map[*query.Query]*core.Plan)
		v.dbVersion = ver
	}
	base, ok := v.plans[q]
	if !ok {
		var err error
		base, err = core.NewPlan(q, v.db, "lftj", v.gao, nil, false, "", v.sc)
		if err != nil {
			return nil, err
		}
		v.plans[q] = base
	}
	deltas := 0
	for _, a := range q.Atoms {
		if isScratch(a.Rel) {
			deltas++
		}
	}
	if deltas == 0 {
		return base, nil
	}
	// The scratch delta relations are re-registered every batch, so their
	// atoms are re-bound on a copy of the cached plan; base-relation
	// bindings carry over untouched.
	cp := *base
	cp.Atoms = append([]core.AtomIndex(nil), base.Atoms...)
	for i, a := range q.Atoms {
		if !isScratch(a.Rel) {
			continue
		}
		ai, err := core.BindAtom(a, v.db, v.gaoPos)
		if err != nil {
			return nil, err
		}
		cp.Atoms[i] = ai
	}
	v.sc.Add(core.Stats{IndexBindings: int64(deltas)})
	return &cp, nil
}

// sync records the database version after one of the view's own mutations,
// so planFor can tell the view's updates apart from external ones.
func (v *View) sync() { v.dbVersion = v.db.Version() }

// Count returns the maintained count.
func (v *View) Count() int64 { return v.count }

// Stats returns the view's accumulated planning and execution counters.
// GAODerivations stays at 1 across arbitrarily many update batches — the
// attribute order and term queries are derived once. IndexBindings grows
// only with the delta atoms re-bound per batch (the base relations' indexes
// are maintained in place by ApplyDelta and never re-bound).
func (v *View) Stats() core.Stats { return v.sc.Snapshot() }

// Recount recomputes from scratch (for verification).
func (v *View) Recount(ctx context.Context) (int64, error) {
	plan, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ}, v.q, v.db)
	if err != nil {
		return 0, err
	}
	return lftj.Run(ctx, plan, plan.Pin(), core.FullRange, nil, nil)
}

// UpdateRelation applies inserts and deletes to one relation and corrects
// the view: Update for a single-relation batch. Tuples to insert that are
// already present, and tuples to delete that are absent, are ignored; a
// tuple on both sides resolves as delete-after-insert, matching every other
// write path.
func (v *View) UpdateRelation(ctx context.Context, rel string, inserts, deletes [][]int64) error {
	return v.Update(ctx, []core.DeltaBatch{{Name: rel, Inserts: inserts, Deletes: deletes}})
}

// occChoice is one varying atom occurrence in a correction pass: the atom
// index and the scratch relation names its base relation's effective
// deletes and inserts were registered under ("" when that side is empty, in
// which case the occurrence never takes that choice).
type occChoice struct {
	atom     int
	del, ins string
}

// Update applies one multi-relation batch (each relation at most once) and
// corrects the maintained count. The correction is computed entirely
// against the pre-update database by signed multilinear expansion (see the
// package comment), then the whole batch lands through one atomic apply —
// a concurrent snapshot observes either the full batch or none of it, and
// any error during correction leaves the database untouched. Semantics per
// relation match core.DB.ApplyDeltas exactly: inserts already present and
// deletes absent are ignored; a tuple on both sides resolves as
// delete-after-insert.
func (v *View) Update(ctx context.Context, batches []core.DeltaBatch) error {
	// Canonicalize every batch against the pre-state: D ⊆ R present
	// deletes, I absent (and not deleted) inserts — the normal form both
	// the χ identity and the eventual apply agree on.
	seen := make(map[string]bool, len(batches))
	var choices []occChoice
	canon := make([]core.DeltaBatch, 0, len(batches))
	for _, b := range batches {
		if seen[b.Name] {
			return fmt.Errorf("incremental: relation %q appears twice in one update batch", b.Name)
		}
		seen[b.Name] = true
		ins, dels, err := v.db.CanonicalDelta(b.Name, b.Inserts, b.Deletes)
		if err != nil {
			return err
		}
		if len(ins) == 0 && len(dels) == 0 {
			continue
		}
		canon = append(canon, core.DeltaBatch{Name: b.Name, Inserts: ins, Deletes: dels})
		if len(v.occ[b.Name]) == 0 {
			continue // the view does not read this relation; apply only
		}
		// Register the non-empty sides as scratch relations for the
		// correction terms to bind.
		var c occChoice
		if len(dels) > 0 {
			c.del = b.Name + delSuffix
			v.db.Add(tuplesToRelation(c.del, len(dels[0]), dels))
		}
		if len(ins) > 0 {
			c.ins = b.Name + insSuffix
			v.db.Add(tuplesToRelation(c.ins, len(ins[0]), ins))
		}
		for _, ai := range v.occ[b.Name] {
			c.atom = ai
			choices = append(choices, c)
		}
	}
	v.sync()
	correction, err := v.correction(ctx, choices)
	if err != nil {
		return err
	}
	if len(canon) > 0 {
		if err := v.db.ApplyDeltas(canon); err != nil {
			return err
		}
		v.sync()
	}
	v.count += correction
	return nil
}

// correction sums sign(a)·Q[a] over every non-all-base assignment a of the
// varying occurrences, each occurrence choosing base, its @del scratch
// (sign −), or its @ins scratch (sign +) — all evaluated against the
// pre-update database. Term queries are cached by assignment signature, so
// a recurring batch shape reuses its compiled plans.
func (v *View) correction(ctx context.Context, choices []occChoice) (int64, error) {
	if len(choices) == 0 {
		return 0, nil
	}
	nTerms := 1
	for _, c := range choices {
		k := 1
		if c.del != "" {
			k++
		}
		if c.ins != "" {
			k++
		}
		if nTerms *= k; nTerms > termBudget {
			return 0, fmt.Errorf("incremental: update expands into more than %d correction terms", termBudget)
		}
	}
	sig := make([]byte, len(v.q.Atoms))
	// state[i] ∈ {0 base, 1 del, 2 ins} per varying occurrence; odometer
	// enumeration over the mixed-radix space, skipping the all-base start.
	state := make([]int, len(choices))
	var total int64
	for {
		i := 0
		for ; i < len(state); i++ {
			state[i]++
			if state[i] == 1 && choices[i].del == "" {
				state[i]++
			}
			if state[i] == 2 && choices[i].ins == "" {
				state[i]++
			}
			if state[i] <= 2 {
				break
			}
			state[i] = 0
		}
		if i == len(state) {
			return total, nil // odometer wrapped: all assignments done
		}
		for j := range sig {
			sig[j] = 'b'
		}
		sign := int64(1)
		for j, c := range choices {
			switch state[j] {
			case 1:
				sig[c.atom] = 'd'
				sign = -sign
			case 2:
				sig[c.atom] = 'i'
			}
		}
		n, err := v.run(ctx, v.termFor(string(sig), choices))
		if err != nil {
			return 0, err
		}
		total += sign * n
	}
}

// termFor returns the correction-term query for one assignment signature,
// building and caching it on first use. Cached terms keep stable pointers,
// which is what keeps the per-term compiled plans cached across batches.
func (v *View) termFor(sig string, choices []occChoice) *query.Query {
	if t, ok := v.terms[sig]; ok {
		return t
	}
	atoms := make([]query.Atom, len(v.q.Atoms))
	copy(atoms, v.q.Atoms)
	for _, c := range choices {
		switch sig[c.atom] {
		case 'd':
			atoms[c.atom] = query.Atom{Rel: c.del, Vars: atoms[c.atom].Vars}
		case 'i':
			atoms[c.atom] = query.Atom{Rel: c.ins, Vars: atoms[c.atom].Vars}
		}
	}
	t := query.New(v.q.Name+"/delta", atoms...)
	v.terms[sig] = t
	return t
}

func tuplesToRelation(name string, arity int, tuples [][]int64) *relation.Relation {
	b := relation.NewBuilder(name, arity)
	for _, t := range tuples {
		b.Add(t...)
	}
	return b.Build()
}

// EdgeView maintains a pattern count over the benchmark graph schema: an
// undirected edge update touches both the symmetric "edge" relation and the
// oriented "fwd" relation.
type EdgeView struct {
	*View
}

// NewEdgeView builds a maintained view over the graph schema.
func NewEdgeView(ctx context.Context, q *query.Query, db *core.DB) (*EdgeView, error) {
	v, err := NewView(ctx, q, db)
	if err != nil {
		return nil, err
	}
	return &EdgeView{View: v}, nil
}

// ApplyEdges inserts and removes undirected edges, updating both derived
// relations and the count as ONE atomic batch: the correction for "edge"
// and "fwd" is computed jointly against the pre-update state, then both
// relations land through a single ApplyDeltas — a concurrent snapshot can
// never observe one updated and not the other.
func (g *EdgeView) ApplyEdges(ctx context.Context, insert, remove [][2]int64) error {
	return g.Update(ctx, []core.DeltaBatch{
		{Name: query.Edge, Inserts: orient(insert, false), Deletes: orient(remove, false)},
		{Name: query.Fwd, Inserts: orient(insert, true), Deletes: orient(remove, true)},
	})
}

// orient turns undirected edges into benchmark-schema tuples: both
// directions for the symmetric "edge" relation, or just the u<v orientation
// for "fwd" (fwdOnly). Self-loops are dropped.
func orient(edges [][2]int64, fwdOnly bool) [][]int64 {
	var out [][]int64
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		out = append(out, []int64{u, v})
		if !fwdOnly {
			out = append(out, []int64{v, u})
		}
	}
	return out
}
