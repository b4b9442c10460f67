package repro

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/agm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/query"
	"repro/internal/relation"
)

// ErrArityMismatch reports a query atom (or a loaded tuple) whose arity
// disagrees with the relation's declared arity; branch with errors.Is. It is
// the core layer's sentinel, so a mismatch caught while binding an index is
// the same error.
var ErrArityMismatch = core.ErrArityMismatch

// ErrRelationExists reports a DefineRelation call that conflicts with an
// existing definition — same name, different arity. Redefining a relation at
// its current arity is a no-op, so schema setup is idempotent (recovery
// replay and client retries re-issue definitions freely).
var ErrRelationExists = errors.New("relation already defined")

// ErrValueOutOfRange reports a loaded or applied tuple value outside the
// storage domain [0, relation.PosInf) — the storage layer reserves negative
// values and the top of the int64 range as sentinels.
var ErrValueOutOfRange = errors.New("value outside the storage domain")

// checkDomain validates one tuple against the declared arity and the
// storage value domain, so the public write surface reports typed errors
// instead of tripping the storage layer's internal panics.
func checkDomain(op, name string, arity int, t []int64) error {
	if len(t) != arity {
		return fmt.Errorf("store: %w: %s of %d-ary tuple %v, relation %q has arity %d", ErrArityMismatch, op, len(t), t, name, arity)
	}
	if !relation.InDomain(t) {
		return fmt.Errorf("store: %w: %s of tuple %v into %q (values must be in [0, %d))", ErrValueOutOfRange, op, t, name, relation.PosInf)
	}
	return nil
}

// Store is the workload surface: a named collection of relations of
// arbitrary arity, queried with conjunctive graph-pattern queries over that
// schema. The caller defines the schema. The paper's §5.1 benchmark schema
// (edge/fwd/v1..v4, loaded by internal/dataset) is one such schema; directed
// graphs, edge-labeled graphs (one relation per label), and arbitrary n-ary
// relations are ordinary multi-relation schemas too.
//
// The lifecycle is the one the paper assumes of LogicBlox: define the
// physical design once (DefineRelation + Load), compile queries against it
// once (Prepare), then execute repeatedly while Apply routes incremental
// update batches through the database's delta overlays so compiled plans
// stay valid and current. ReadTxn pins one index snapshot across several
// executions and Batch executes many prepared queries concurrently against
// one shared snapshot.
//
// A Store is safe for concurrent use.
type Store struct {
	db *core.DB
	// mu is the write lock: it serializes DefineRelation's exists-check
	// against its registration and, on a durable store, pairs every WAL
	// append with its in-memory apply so log order equals apply order.
	// Reads never take it (the database has its own lock); fsync waits
	// happen after it is released so concurrent writers group-commit.
	mu sync.Mutex
	// dur is the durability manager for stores opened with OpenStore; nil
	// for in-memory stores, which skip logging entirely.
	dur *durable.Manager
	// ckptBytes is DurabilityOptions.CheckpointBytes. Under ckptMu, ckptBusy
	// keeps at most one size-triggered background checkpoint in flight and
	// ckptClosed, set by Close, stops new ones; Close waits on ckptDone for
	// the one in flight.
	ckptBytes  int64
	ckptMu     sync.Mutex
	ckptBusy   bool
	ckptClosed bool
	ckptDone   sync.WaitGroup
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{db: core.NewDB()}
}

// DefineRelation declares a named relation of the given arity and registers
// it empty, so queries over it compile before the first Load. Names must be
// identifiers ([A-Za-z_][A-Za-z0-9_]*) — the ParseQuery syntax has to be able
// to name them — and arity must be at least 1. Redefining a relation at its
// current arity is a no-op (schema setup is idempotent); redefining it at a
// different arity fails with ErrRelationExists. Use Load to replace a
// relation's contents.
func (s *Store) DefineRelation(name string, arity int) error {
	if !isIdent(name) {
		return fmt.Errorf("store: relation name %q is not an identifier", name)
	}
	if arity < 1 {
		return fmt.Errorf("store: relation %q: arity %d out of range (want >= 1)", name, arity)
	}
	s.mu.Lock()
	if cur, err := s.db.Arity(name); err == nil {
		defer s.mu.Unlock()
		if cur == arity {
			return nil
		}
		return fmt.Errorf("store: %w: %q has arity %d, redefined as %d", ErrRelationExists, name, cur, arity)
	}
	var lsn uint64
	if s.dur != nil {
		var err error
		if lsn, err = s.dur.AppendDefine(name, arity); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.db.Add(relation.NewBuilder(name, arity).Build())
	s.mu.Unlock()
	if s.dur != nil {
		return s.dur.Commit(lsn)
	}
	return nil
}

// Relations returns the schema as sorted relation names; Arity looks up one
// relation's arity.
func (s *Store) Relations() []string {
	names := s.db.Names()
	sort.Strings(names)
	return names
}

// Arity returns the declared arity of the named relation
// (ErrUnknownRelation if it does not exist).
func (s *Store) Arity(name string) (int, error) { return s.db.Arity(name) }

// Load replaces the named relation's contents with the given tuples in one
// bulk registration (duplicates merge; tuples must match the declared arity
// and carry values in [0, relation.PosInf)). Loading rebuilds the relation's
// physical indexes and invalidates compiled plans that read it — it is the
// bulk path; route incremental changes through Apply, which keeps prepared
// plans valid.
func (s *Store) Load(name string, tuples [][]int64) error {
	arity, err := s.Arity(name)
	if err != nil {
		return err
	}
	b := relation.NewBuilder(name, arity)
	for _, t := range tuples {
		if err := checkDomain("load", name, arity, t); err != nil {
			return err
		}
		b.Add(t...)
	}
	rel := b.Build()
	if s.dur == nil {
		s.db.Add(rel)
		return nil
	}
	s.mu.Lock()
	lsn, err := s.dur.AppendLoad(name, tuples)
	if err == nil {
		s.db.Add(rel)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.dur.Commit(lsn); err != nil {
		return err
	}
	s.maybeCheckpoint()
	return nil
}

// Apply applies an incremental update batch to the named relation: inserts
// already present and deletes absent are ignored, and a tuple appearing on
// both sides of one batch resolves as delete-after-insert — an absent tuple
// stays absent, a present one is deleted. The batch routes through the
// database's delta path (core.DB.ApplyDelta), which folds it into the cached
// indexes' delta overlays in time proportional to the batch, not the
// relation — the flat rows are never re-merged on a write. The freshness
// rule: every Prepared handle follows the write (its next execution counts
// the post-write state), while a ReadTxn opened before it keeps reading the
// state pinned at its begin. That is what makes prepare-once /
// execute-repeatedly hold under a live write stream.
func (s *Store) Apply(name string, inserts, deletes [][]int64) error {
	arity, err := s.Arity(name)
	if err != nil {
		return err
	}
	for _, t := range inserts {
		if err := checkDomain("insert", name, arity, t); err != nil {
			return err
		}
	}
	for _, t := range deletes {
		if err := checkDomain("delete", name, arity, t); err != nil {
			return err
		}
	}
	return s.applyDeltas([]core.DeltaBatch{{Name: name, Inserts: inserts, Deletes: deletes}})
}

// CheckQuery validates a query against the store's schema: every atom must
// name a stored relation (ErrUnknownRelation) with matching arity
// (ErrArityMismatch). Prepare and ParseQuery run it implicitly.
func (s *Store) CheckQuery(q *Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for _, a := range q.Atoms {
		arity, err := s.Arity(a.Rel)
		if err != nil {
			return fmt.Errorf("store: query %q: %w", q.Name, err)
		}
		if arity != len(a.Vars) {
			return fmt.Errorf("store: query %q: %w: atom %s has %d variables but relation %q has arity %d",
				q.Name, ErrArityMismatch, a, len(a.Vars), a.Rel, arity)
		}
	}
	return nil
}

// ParseQuery parses the Datalog-style syntax over this store's schema and
// validates it eagerly. A bare body ("follows(a,b), follows(b,c)") outputs
// every variable; a full rule's head names the query and fixes — or projects
// — the output ("fof(a, c) :- follows(a, b), follows(b, c)" emits the
// distinct (a, c) pairs; "fof(c, b, a) :- ..." reorders). Atoms may carry
// integer constants ("e(a, 5)"), bodies may mix in comparison predicates
// ("a < b", "x >= 10"), and heads may end in aggregate terms
// ("deg(a, count(b)) :- e(a, b)") — see ParseQuery (package query) for the
// grammar. Unknown relations, arity mismatches, unbound head or predicate
// variables, and malformed syntax surface as typed errors
// (ErrUnknownRelation, ErrArityMismatch, ErrUnboundHeadVar,
// query.ErrUnboundPredVar, *query.SyntaxError).
func (s *Store) ParseQuery(name, src string) (*Query, error) {
	q, err := query.Parse(name, src)
	if err != nil {
		return nil, err
	}
	if err := s.CheckQuery(q); err != nil {
		return nil, err
	}
	return q, nil
}

// Prepare compiles the query against this store for the configured engine:
// schema check, algorithm validation (ErrUnknownAlgorithm), GAO resolution,
// and GAO-consistent index binding all happen here — every subsequent
// Count/Enumerate/Rows call on the returned handle is pure execution.
// Compiled plans are cached on the store's database, keyed on query shape ×
// algorithm × GAO.
func (s *Store) Prepare(q *Query, opts Options) (*Prepared, error) {
	if err := s.CheckQuery(q); err != nil {
		return nil, err
	}
	return prepare(s, q, opts)
}

// Count evaluates the query on the store and returns the number of results.
// It is a one-shot convenience over Prepare — repeated executions of the
// same query should hold a Prepared handle instead.
func (s *Store) Count(ctx context.Context, q *Query, opts Options) (int64, error) {
	p, err := s.Prepare(q, opts)
	if err != nil {
		return 0, err
	}
	return p.Count(ctx)
}

// Enumerate streams result tuples in output order (the head variables then
// any aggregate values; q.Vars() order for plain queries); emit returns
// false to stop early. One-shot convenience over Prepare.
func (s *Store) Enumerate(ctx context.Context, q *Query, opts Options, emit func([]int64) bool) error {
	p, err := s.Prepare(q, opts)
	if err != nil {
		return err
	}
	return p.Enumerate(ctx, emit)
}

// AGMBound returns the Atserias–Grohe–Marx worst-case output bound of the
// query on this store's relation sizes (paper Appendix A).
func (s *Store) AGMBound(q *Query) (float64, error) {
	sizes, err := relationSizes(s.db, q)
	if err != nil {
		return 0, fmt.Errorf("agm: %w", err)
	}
	res, err := agm.Compute(q, sizes)
	if err != nil {
		return 0, err
	}
	return res.Bound(), nil
}

// DB exposes the underlying database (for the benchmark harness and the
// internal packages).
func (s *Store) DB() *core.DB { return s.db }

// OverlayDepth returns the total pending delta-log size across the store's
// cached indexes: tuples applied incrementally but not yet compacted
// into base tries. The server exports it per store as
// graphjoind_overlay_depth.
func (s *Store) OverlayDepth() int { return s.db.OverlayDepth() }

// isIdent reports whether name is a ParseQuery-compatible identifier.
func isIdent(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
