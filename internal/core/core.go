// Package core holds the pieces shared by every join engine in the
// reproduction: the database (a named collection of relations, each stored
// once as GAO-consistent trie indexes, §4.1), the compiled plans the engines
// execute, and the atom-binding rule they share.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/relation"
)

// Typed failure kinds, so API callers can branch on errors.Is instead of
// matching message text.
var (
	// ErrUnknownRelation reports a query atom naming a relation the
	// database does not hold.
	ErrUnknownRelation = errors.New("unknown relation")
	// ErrUnboundVar reports a query variable not covered by the global
	// attribute order (or not bound by any atom).
	ErrUnboundVar = errors.New("variable not bound")
	// ErrArityMismatch reports a query atom (or a tuple) whose width differs
	// from its relation's arity.
	ErrArityMismatch = errors.New("arity mismatch")
)

// DB is a collection of named relations, each stored once: as the CSR trie
// index over its identity attribute order, which Add builds. Engines request
// further GAO-consistent indexes through TrieIndex; they are cached because
// the paper's protocol reuses the same physical design across queries (§4.1:
// "all input relations are indexed consistent with this GAO"). The DB also
// caches compiled query plans (see plan.go). Neither cache is ever
// invalidated: every write — Add as much as ApplyDelta — advances the
// contents of the indexes it touches and keeps the index objects, so every
// cached plan stays valid. The contents of every trie index live in the
// published generation (gen, see Generation): writers build the next one
// under mu and publish it in one atomic store, readers pin it without taking
// mu.
type DB struct {
	mu    sync.Mutex
	rels  map[string]*relState
	plans map[string]*Plan
	gen   atomic.Pointer[Generation]
	// draft is the next generation while a write holding mu builds it (see
	// draftLocked); nil otherwise.
	draft map[*Index]*relation.Overlay
}

// relState is one relation: its arity and its indexes. The first is the
// canonical index, the trie index over the identity attribute order (shared
// with every plan that binds that order); its overlay is the relation's
// contents, which ApplyDelta advances in O(batch) and from which the flat
// form is materialised on every request (Relation). The others are the
// permutations TrieIndex built, in the order it built them.
type relState struct {
	arity   int
	indexes []*Index
}

// canonLocked returns the relation's canonical overlay as the write holding
// DB.mu leaves it.
func (db *DB) canonLocked(st *relState) *relation.Overlay {
	return db.overlayLocked(st.indexes[0])
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{
		rels:  make(map[string]*relState),
		plans: make(map[string]*Plan),
	}
	db.gen.Store(&Generation{ovs: make(map[*Index]*relation.Overlay)})
	return db
}

// Add registers a relation under its name, or replaces the contents of the
// relation of that name. A replacement is a write like ApplyDelta: every
// index of the relation — the canonical one and each cached permutation —
// is rebuilt from r in the next generation and published with it, so the
// index objects and every cached plan over them carry over and every handle
// follows the write, while a generation pinned before it (a Lease) keeps
// reading the old contents. Replacing a relation at another arity fails
// with ErrArityMismatch and changes nothing. Add keeps no reference to r.
func (db *DB) Add(r *relation.Relation) error {
	return db.AddAll([]*relation.Relation{r})
}

// AddAll registers or replaces several relations as one write, published as
// one generation, so no reader — in particular no snapshot lease — can
// observe some of them replaced and others not (the multi-relation
// counterpart of Add, as ApplyDeltas is of ApplyDelta; the benchmark
// schema's sample redraws replace two relations at once). Every arity is
// checked before anything is written.
func (db *DB) AddAll(rels []*relation.Relation) error {
	db.mu.Lock()
	defer db.unlock()
	for _, r := range rels {
		if st, ok := db.rels[r.Name()]; ok && st.arity != r.Arity() {
			return fmt.Errorf("core: %w: relation %q of arity %d replaced at arity %d", ErrArityMismatch, r.Name(), st.arity, r.Arity())
		}
	}
	draft := db.draftLocked()
	for _, r := range rels {
		st, ok := db.rels[r.Name()]
		if !ok {
			identity := make([]int, r.Arity())
			for k := range identity {
				identity[k] = k
			}
			st = &relState{arity: r.Arity(), indexes: []*Index{{db: db, perm: identity}}}
			db.rels[r.Name()] = st
		}
		var built []*relation.Overlay
		for _, x := range st.indexes {
			draft[x] = buildOverlay(r, x.perm, built)
			built = append(built, draft[x])
		}
	}
	return nil
}

// OverlayDepth sums the pending delta-log sizes of every cached trie index:
// the number of tuples sitting in overlay logs ahead of their base tries.
// The metrics layer exports it per store as graphjoind_overlay_depth.
func (db *DB) OverlayDepth() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	total := 0
	for _, st := range db.rels {
		for _, x := range st.indexes {
			total += db.overlayLocked(x).LogLen()
		}
	}
	return total
}

// ApplyDelta applies an in-place update batch to the named relation in time
// proportional to the batch and the small overlay logs, never to the
// relation: the batch is reduced to its canonical delta against the
// relation's canonical index (the identity-order CSR overlay), sorted once,
// and handed to every cached index as a log increment in that index's own
// attribute order (relation.Overlay) — no trie rebuild, no merge of the base
// rows. The new overlays are published as the next generation in one store.
// Compiled plans stay cached and valid because their index objects carry
// over into it: every handle over them follows the write.
//
// Inserts already present and deletes absent are ignored, and a tuple
// appearing on both sides of one batch resolves as delete-after-insert (an
// absent tuple stays absent, a present one is deleted), so any caller batch
// is safe.
func (db *DB) ApplyDelta(name string, inserts, deletes [][]int64) error {
	db.mu.Lock()
	defer db.unlock()
	return db.applyDeltaLocked(name, inserts, deletes)
}

// DeltaBatch is one relation's update batch within a multi-relation delta.
type DeltaBatch struct {
	Name    string
	Inserts [][]int64
	Deletes [][]int64
}

// ApplyDeltas applies several relations' update batches as one write: every
// new overlay is built under one lock acquisition and published as one
// generation, so no reader — no execution, no lease (NewLease), no index
// bind — can observe a state where some of the batches have landed and
// others have not. This is the write path for derived-relation schemas
// whose invariants span relations (the benchmark graph's symmetric "edge"
// and oriented "fwd"). All batch names are validated up front; an unknown
// relation fails the whole call before anything is applied.
func (db *DB) ApplyDeltas(batches []DeltaBatch) error {
	db.mu.Lock()
	defer db.unlock()
	for _, b := range batches {
		if _, ok := db.rels[b.Name]; !ok {
			return fmt.Errorf("core: %w: %q", ErrUnknownRelation, b.Name)
		}
	}
	for _, b := range batches {
		if err := db.applyDeltaLocked(b.Name, b.Inserts, b.Deletes); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) applyDeltaLocked(name string, inserts, deletes [][]int64) error {
	st, ok := db.rels[name]
	if !ok {
		return fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	ins, dels := st.canonicalDelta(name, db.canonLocked(st), inserts, deletes)
	if ins.Len() == 0 && dels.Len() == 0 {
		return nil
	}
	draft := db.draftLocked()
	for _, x := range st.indexes {
		draft[x] = draft[x].ApplySorted(ins.Permute(x.perm), dels.Permute(x.perm))
	}
	return nil
}

// canonicalDelta reduces a raw update batch to the canonical delta against
// the relation, as two sorted relations: deletes restricted to present
// tuples, inserts to absent ones, both deduplicated. A tuple appearing on
// both sides resolves as delete-after-insert: a no-op for absent tuples, a
// delete for present ones. The result satisfies the overlay invariants
// (ins ∩ r = ∅, dels ⊆ r, ins ∩ dels = ∅). Each side is sorted once and
// probed against the relation's canonical overlay (canon, see canonLocked)
// — no per-tuple keys. Tuples of the wrong arity are skipped, as are deletes
// outside the storage domain (they cannot be present).
func (st *relState) canonicalDelta(name string, canon *relation.Overlay, inserts, deletes [][]int64) (ins, dels *relation.Relation) {
	delB := relation.NewBuilder(name, st.arity)
	for _, t := range deletes {
		if len(t) == st.arity && relation.InDomain(t) {
			delB.Add(t...)
		}
	}
	allDels := delB.Build()
	insB := relation.NewBuilder(name, st.arity)
	for _, t := range inserts {
		if len(t) == st.arity {
			insB.Add(t...)
		}
	}
	contains := func(t []int64) bool {
		_, found := canon.ProbeGap(t)
		return found
	}
	dels = allDels.Filter(contains)
	ins = insB.Build().Filter(func(t []int64) bool { return !allDels.Contains(t) && !contains(t) })
	return ins, dels
}

// Snapshot captures every relation's canonical overlay under one lock
// acquisition, in O(#relations): overlays are immutable, so the captures
// form a consistent point-in-time view of the database — the capture the
// durability layer's checkpointer pairs with the WAL position it holds while
// calling, and encodes (Overlay.Rows) after it has let go of every lock.
func (db *DB) Snapshot() []*relation.Overlay {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*relation.Overlay, 0, len(db.rels))
	for _, st := range db.rels {
		out = append(out, db.canonLocked(st))
	}
	return out
}

// Relation returns the named relation in flat form: a view merged from the
// canonical overlay (Overlay.Flat) on every call, outside the lock, and kept
// nowhere — so the engines that read flat rows (the ablation baselines and
// the test oracle) pay one linear merge per call, and only they do. Use
// Arity and Len for metadata — they never materialise.
func (db *DB) Relation(name string) (*relation.Relation, error) {
	canon, err := db.canonical(name)
	if err != nil {
		return nil, err
	}
	return canon.Flat(), nil
}

// canonical returns the named relation's published canonical overlay.
func (db *DB) canonical(name string) (*relation.Overlay, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	return db.canonLocked(st), nil
}

// Arity returns the named relation's arity.
func (db *DB) Arity(name string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st, ok := db.rels[name]
	if !ok {
		return 0, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	return st.arity, nil
}

// Len returns the named relation's tuple count.
func (db *DB) Len(name string) (int, error) {
	canon, err := db.canonical(name)
	if err != nil {
		return 0, err
	}
	return canon.Len(), nil
}

// Names returns the registered relation names (unordered).
func (db *DB) Names() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	return out
}

// TrieIndex returns the named relation's GAO-consistent trie index for the
// attribute order perm, caching it for the database's life (ApplyDelta
// advances cached indexes through their delta overlays, and Add rebuilds
// them in place). The identity order is the canonical index Add built; any
// other order is built here from the flat view permuted into it, so the
// build cost is paid once per relation × permutation and amortized across
// executions — or not at all when a pristine index of the relation already
// holds exactly those rows (a symmetric relation's swapped order), whose
// overlay the new index then shares (buildOverlay). A perm whose length is
// not the relation's arity fails with ErrArityMismatch.
func (db *DB) TrieIndex(name string, perm []int) (*Index, error) {
	db.mu.Lock()
	defer db.unlock()
	return db.trieIndexLocked(name, perm)
}

func (db *DB) trieIndexLocked(name string, perm []int) (*Index, error) {
	st, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	for _, x := range st.indexes {
		if slices.Equal(x.perm, perm) {
			return x, nil
		}
	}
	if len(perm) != st.arity {
		return nil, fmt.Errorf("core: %w: %d columns bound over relation %q of arity %d", ErrArityMismatch, len(perm), name, st.arity)
	}
	x := &Index{db: db, perm: append([]int(nil), perm...)}
	db.draftLocked()[x] = db.buildIndexLocked(st, perm)
	st.indexes = append(st.indexes, x)
	return x, nil
}

// buildIndexLocked builds the relation's contents, as the write holding
// DB.mu leaves them, in the attribute order perm (buildOverlay: sharing the
// base trie of an index that already holds them in that order).
func (db *DB) buildIndexLocked(st *relState, perm []int) *relation.Overlay {
	peers := make([]*relation.Overlay, len(st.indexes))
	for i, x := range st.indexes {
		peers[i] = db.overlayLocked(x)
	}
	return buildOverlay(db.canonLocked(st).Flat(), perm, peers)
}

// AtomIndex resolves the GAO-consistent index for one atom: the atom's
// variables sorted by GAO position, the permutation applied, and the global
// GAO positions of its columns in index order.
type AtomIndex struct {
	// Index is the atom's trie index; the trie-driven engines (LFTJ,
	// Minesweeper) execute exclusively against it, through the generation
	// each execution pins.
	Index *Index
	// VarPos[k] is the GAO position of the index's column k.
	VarPos []int
}

// atomOrder is the column-order rule of §4.1: the atom's columns sorted by
// the GAO position of their variables (order[k] is the source column stored
// at index position k, the perm DB.TrieIndex takes), and the GAO
// position of each index column (varPos). gaoPos maps variable name to GAO
// position.
func atomOrder(a query.Atom, gaoPos map[string]int) (order, varPos []int, err error) {
	order = make([]int, len(a.Vars))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(x, y int) bool {
		return gaoPos[a.Vars[order[x]]] < gaoPos[a.Vars[order[y]]]
	})
	varPos = make([]int, len(order))
	for k, col := range order {
		p, ok := gaoPos[a.Vars[col]]
		if !ok {
			return nil, nil, fmt.Errorf("core: %w: GAO misses variable %q of atom %s", ErrUnboundVar, a.Vars[col], a)
		}
		varPos[k] = p
	}
	return order, varPos, nil
}

// gaoPositions maps each variable of a global attribute order to its
// position.
func gaoPositions(gao []string) map[string]int {
	pos := make(map[string]int, len(gao))
	for i, v := range gao {
		pos[v] = i
	}
	return pos
}

// BindAtoms builds GAO-consistent trie indexes for all atoms of a query
// (paper §4.1).
func BindAtoms(q *query.Query, db *DB, gao []string) ([]AtomIndex, error) {
	return bindAtoms(q, gao, db.TrieIndex)
}

// bindAtoms binds each atom of q to the index index returns for its
// relation and GAO-consistent column order.
func bindAtoms(q *query.Query, gao []string, index func(name string, perm []int) (*Index, error)) ([]AtomIndex, error) {
	pos := gaoPositions(gao)
	out := make([]AtomIndex, len(q.Atoms))
	for i, a := range q.Atoms {
		order, varPos, err := atomOrder(a, pos)
		if err != nil {
			return nil, err
		}
		trie, err := index(a.Rel, order)
		if err != nil {
			return nil, err
		}
		out[i] = AtomIndex{Index: trie, VarPos: varPos}
	}
	return out, nil
}

// CheckEvery is how many inner-loop steps engines may take between context
// checks; exported so all engines share the same responsiveness contract.
const CheckEvery = 4096

// ErrOverBudget reports an execution stopped because its seeks passed the
// limit its Ticker was given (Ticker.Limit), or its steps passed
// TicksPerSeek times that limit: a priced order that already costs more
// than the cheapest one found.
var ErrOverBudget = errors.New("seek budget exhausted")

// TicksPerSeek bounds the steps of a seek-limited execution: it gives up
// once its Ticks pass this many per seek of its limit. A level walked by
// Next, or sized without a visit, spends steps without seeking, so a seek
// limit alone would not bound the work of an order that walks many keys per
// binding.
const TicksPerSeek = 16

// Ticker counts engine steps and surfaces context cancellation with low
// overhead.
type Ticker struct {
	n     int
	ctx   context.Context
	seeks *int64 // nil: no seek budget
	limit int64
}

// NewTicker returns a Ticker for ctx.
func NewTicker(ctx context.Context) *Ticker { return &Ticker{ctx: ctx} }

// Limit makes Tick fail with ErrOverBudget once *seeks passes limit, or
// the Ticks counted pass TicksPerSeek·limit.
func (t *Ticker) Limit(seeks *int64, limit int64) { t.seeks, t.limit = seeks, limit }

// Tick reports a non-nil error when the context is done or the seek budget
// is spent; it only inspects either every CheckEvery calls.
func (t *Ticker) Tick() error {
	t.n++
	if t.n%CheckEvery != 0 {
		return nil
	}
	return t.check()
}

// check is Tick's rare half, kept out of line so that Tick inlines.
//
//go:noinline
func (t *Ticker) check() error {
	if t.seeks != nil && (*t.seeks > t.limit || int64(t.n)/TicksPerSeek > t.limit) {
		return ErrOverBudget
	}
	return t.ctx.Err()
}
