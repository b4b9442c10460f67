// Package core holds the pieces shared by every join engine in the
// reproduction: the database (a named collection of relations with a cache
// of GAO-consistent secondary indexes, §4.1) and the Engine interface the
// benchmark harness drives.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
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

// DB is a collection of named relations. Engines request GAO-consistent
// secondary indexes through Index; results are cached because the paper's
// protocol reuses the same physical design across queries (§4.1: "all input
// relations are indexed consistent with this GAO"). The DB also caches
// compiled query plans (see plan.go); both caches are invalidated per
// relation by Add. The contents of every cached trie index live in the
// published generation (gen, see Generation): writers build the next one
// under mu and publish it in one atomic store, readers pin it without
// taking mu.
type DB struct {
	mu      sync.Mutex
	rels    map[string]*relState
	indexes map[string]*relation.Relation
	tries   map[string]*Index
	plans   map[string]*Plan
	gen     atomic.Pointer[Generation]
	// draft is the next generation while a write holding mu builds it (see
	// draftLocked); nil otherwise.
	draft map[*Index]*relation.Overlay
	// version increments on every Add and ApplyDelta; plan compilation
	// snapshots it so a plan bound against relations that were replaced
	// mid-compile is never cached (it would otherwise dodge Add's
	// invalidation sweep forever).
	version int64
}

// relState is one relation's contents. Add registers a flat relation; from
// the first delta on, the identity-order CSR index (canon) is the source of
// truth — ApplyDelta advances its overlay in O(batch) and never re-merges
// the flat form, which becomes a view materialised on demand (Relation).
type relState struct {
	arity int
	// flat is the relation in flat form when that is known: what Add
	// registered or, once canon is bound, what Relation last merged from the
	// current overlay snapshot. ApplyDelta resets it, so no flat copy
	// outlives the write generation it was made for.
	flat *relation.Relation
	// canon is the cached trie index over the identity attribute order
	// (shared with every plan that binds that order); nil until the first
	// delta, so Load-only databases never build it.
	canon *Index
}

// canonLocked returns the relation's canonical overlay as the write holding
// DB.mu leaves it, nil while the relation is still flat.
func (db *DB) canonLocked(st *relState) *relation.Overlay {
	if st.canon == nil {
		return nil
	}
	return db.overlayLocked(st.canon)
}

// contains reports whether t is in the relation: canon is its canonical
// overlay (canonLocked).
func (st *relState) contains(canon *relation.Overlay, t []int64) bool {
	if canon != nil {
		_, found := canon.ProbeGap(t)
		return found
	}
	return st.flat.Contains(t)
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{
		rels:    make(map[string]*relState),
		indexes: make(map[string]*relation.Relation),
		tries:   make(map[string]*Index),
		plans:   make(map[string]*Plan),
	}
	db.gen.Store(&Generation{ovs: make(map[*Index]*relation.Overlay)})
	return db
}

// Add registers a relation under its name, replacing any previous relation
// with that name and invalidating its cached indexes and any cached plans
// that read it. Plans compiled before keep reading the replaced contents.
func (db *DB) Add(r *relation.Relation) {
	db.mu.Lock()
	defer db.unlock()
	db.addLocked(r)
}

// AddAll registers several relations under one lock acquisition, so no
// reader — in particular no snapshot lease — can observe some of them
// replaced and others not (the multi-relation counterpart of Add, as
// ApplyDeltas is of ApplyDelta; the benchmark schema's sample redraws
// replace four relations at once).
func (db *DB) AddAll(rels []*relation.Relation) {
	db.mu.Lock()
	defer db.unlock()
	for _, r := range rels {
		db.addLocked(r)
	}
}

func (db *DB) addLocked(r *relation.Relation) {
	db.version++
	db.rels[r.Name()] = &relState{arity: r.Arity(), flat: r}
	prefix := r.Name() + "/"
	for k := range db.indexes {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(db.indexes, k)
		}
	}
	for k, x := range db.tries {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			draft := db.draftLocked()
			x.retired = draft[x]
			delete(draft, x)
			delete(db.tries, k)
		}
	}
	for k, p := range db.plans {
		if p.reads(r.Name()) {
			delete(db.plans, k)
		}
	}
}

// OverlayDepth sums the pending delta-log sizes of every cached trie index:
// the number of tuples sitting in overlay logs ahead of their base tries.
// The metrics layer exports it per store as graphjoind_overlay_depth.
func (db *DB) OverlayDepth() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	total := 0
	for _, x := range db.tries {
		total += db.overlayLocked(x).LogLen()
	}
	return total
}

// Version returns the database's mutation counter (incremented by every Add
// and ApplyDelta). Callers that cache derived state — the incremental views
// cache compiled delta plans — compare versions to detect relations changing
// underneath them.
func (db *DB) Version() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// ApplyDelta applies an in-place update batch to the named relation in time
// proportional to the batch and the small overlay logs, never to the
// relation: the batch is reduced to its canonical delta against the
// relation's canonical index (the identity-order CSR overlay, bound at the
// first delta), sorted once, and handed to every cached index as a log
// increment in that index's own attribute order (relation.Overlay) — no
// trie rebuild, no merge of the base rows. The new overlays are published
// as the next generation in one store. Compiled plans stay cached and valid
// because their index objects carry over into it: every handle over them
// follows the write.
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
	if st.canon == nil {
		identity := make([]int, st.arity)
		for k := range identity {
			identity[k] = k
		}
		idx, err := db.trieIndexLocked(name, identity)
		if err != nil {
			return err
		}
		st.canon = idx
	}
	st.flat = nil
	db.version++
	prefix := name + "/"
	for k := range db.indexes {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(db.indexes, k)
		}
	}
	draft := db.draftLocked()
	for k, x := range db.tries {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			draft[x] = draft[x].ApplySorted(ins.Permute(x.perm), dels.Permute(x.perm))
		}
	}
	return nil
}

// canonicalDelta reduces a raw update batch to the canonical delta against
// the relation, as two sorted relations: deletes restricted to present
// tuples, inserts to absent ones, both deduplicated. A tuple appearing on
// both sides resolves as delete-after-insert: a no-op for absent tuples, a
// delete for present ones. The result satisfies the overlay invariants
// (ins ∩ r = ∅, dels ⊆ r, ins ∩ dels = ∅). Each side is sorted once and
// probed against the relation's index (canon, see canonLocked) — no
// per-tuple keys. Tuples of the wrong arity are skipped, as are deletes
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
	dels = allDels.Filter(func(t []int64) bool { return st.contains(canon, t) })
	ins = insB.Build().Filter(func(t []int64) bool { return !allDels.Contains(t) && !st.contains(canon, t) })
	return ins, dels
}

// CanonicalDelta returns the canonical form of a raw update batch against
// the named relation's current contents — exactly the delta ApplyDelta would
// land, in sorted order — without applying it and without materialising the
// relation. The incremental views canonicalize their batches through it
// before deriving correction terms, so view maintenance and the raw
// ApplyDelta path agree on batch semantics.
func (db *DB) CanonicalDelta(name string, inserts, deletes [][]int64) (ins, dels [][]int64, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st, ok := db.rels[name]
	if !ok {
		return nil, nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	insRel, delsRel := st.canonicalDelta(name, db.canonLocked(st), inserts, deletes)
	return insRel.Tuples(), delsRel.Tuples(), nil
}

// RelationSnapshot is one relation's immutable contents at the moment
// DB.Snapshot captured it: the flat relation if one is at hand, else the
// canonical overlay snapshot.
type RelationSnapshot struct {
	flat *relation.Relation
	ov   *relation.Overlay
}

// Flat returns the captured contents as a flat relation — for a relation
// captured as an overlay, one linear merge per call, done here and kept
// nowhere, so the caller decides under which locks (none) it is paid and
// how long the copy lives.
func (s RelationSnapshot) Flat() *relation.Relation {
	if s.flat != nil {
		return s.flat
	}
	return s.ov.Flat()
}

// Snapshot captures every relation under one lock acquisition, in
// O(#relations): relations and overlay snapshots are immutable, so the
// captures form a consistent point-in-time view of the database — the
// capture the durability layer's checkpointer pairs with the WAL position it
// holds while calling, and materialises (RelationSnapshot.Flat) after it has
// let go of every lock.
func (db *DB) Snapshot() []RelationSnapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]RelationSnapshot, 0, len(db.rels))
	for _, st := range db.rels {
		s := RelationSnapshot{flat: st.flat}
		if s.flat == nil {
			s.ov = db.canonLocked(st)
		}
		out = append(out, s)
	}
	return out
}

// Relation returns the named relation in flat form. Once a delta has landed
// that form is a view: it is merged from the canonical overlay on the first
// call after a write and kept until the next write, so the engines that
// read flat rows (the ablation baselines and generic join) pay one linear
// merge per write generation, and only if they ask. Use Arity and Len for
// metadata — they never materialise.
func (db *DB) Relation(name string) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.relationLocked(name)
}

func (db *DB) relationLocked(name string) (*relation.Relation, error) {
	st, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	if st.flat == nil {
		st.flat = db.canonLocked(st).Flat()
	}
	return st.flat, nil
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
	db.mu.Lock()
	defer db.mu.Unlock()
	st, ok := db.rels[name]
	if !ok {
		return 0, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	if st.flat != nil {
		return st.flat.Len(), nil
	}
	return db.canonLocked(st).Len(), nil
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

// Index returns the named relation with its columns permuted by perm and
// re-sorted, caching the result. perm[k] is the source column stored at
// output position k.
func (db *DB) Index(name string, perm []int) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.indexLocked(name, perm)
}

func indexKey(name string, perm []int) string {
	key := name + "/"
	for _, p := range perm {
		key += strconv.Itoa(p) + ","
	}
	return key
}

func (db *DB) indexLocked(name string, perm []int) (*relation.Relation, error) {
	key := indexKey(name, perm)
	if idx, ok := db.indexes[key]; ok {
		return idx, nil
	}
	r, err := db.relationLocked(name)
	if err != nil {
		return nil, err
	}
	idx := r.Permute(perm)
	db.indexes[key] = idx
	return idx, nil
}

// TrieIndex returns the named relation's GAO-consistent trie index for the
// attribute order perm, caching the built index alongside the permuted
// relation (both caches are invalidated per relation by Add; ApplyDelta
// instead advances cached indexes through their delta overlays). The CSR
// trie levels are materialized here, so the build cost is paid once per
// relation × permutation and amortized across executions. A perm whose
// length is not the relation's arity fails with ErrArityMismatch.
func (db *DB) TrieIndex(name string, perm []int) (*Index, error) {
	db.mu.Lock()
	defer db.unlock()
	return db.trieIndexLocked(name, perm)
}

func (db *DB) trieIndexLocked(name string, perm []int) (*Index, error) {
	key := indexKey(name, perm)
	if x, ok := db.tries[key]; ok {
		return x, nil
	}
	st, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	if len(perm) != st.arity {
		return nil, fmt.Errorf("core: %w: %d columns bound over relation %q of arity %d", ErrArityMismatch, len(perm), name, st.arity)
	}
	rel, err := db.indexLocked(name, perm)
	if err != nil {
		return nil, err
	}
	x := &Index{db: db, perm: append([]int(nil), perm...)}
	db.draftLocked()[x] = relation.NewOverlay(rel)
	db.tries[key] = x
	return x, nil
}

// Engine is a join algorithm. Count returns the number of result tuples of
// the natural join; Enumerate calls emit for every result tuple with the
// variable bindings in q.Vars() order and stops early if emit returns false.
// Both honor context cancellation.
type Engine interface {
	Name() string
	Count(ctx context.Context, q *query.Query, db *DB) (int64, error)
	Enumerate(ctx context.Context, q *query.Query, db *DB, emit func([]int64) bool) error
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

// AtomOrder is the column-order rule of §4.1: the atom's columns sorted by
// the GAO position of their variables (order[k] is the source column stored
// at index position k, the perm DB.Index and DB.TrieIndex take), and the GAO
// position of each index column (varPos). gaoPos maps variable name to GAO
// position.
func AtomOrder(a query.Atom, gaoPos map[string]int) (order, varPos []int, err error) {
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

// BindAtom builds the GAO-consistent trie index for one atom. gaoPos maps
// variable name to GAO position. The incremental views use it to re-bind
// just their delta atoms per update batch.
func BindAtom(a query.Atom, db *DB, gaoPos map[string]int) (AtomIndex, error) {
	order, varPos, err := AtomOrder(a, gaoPos)
	if err != nil {
		return AtomIndex{}, err
	}
	trie, err := db.TrieIndex(a.Rel, order)
	if err != nil {
		return AtomIndex{}, err
	}
	return AtomIndex{Index: trie, VarPos: varPos}, nil
}

// GAOPositions maps each variable of a global attribute order to its
// position.
func GAOPositions(gao []string) map[string]int {
	pos := make(map[string]int, len(gao))
	for i, v := range gao {
		pos[v] = i
	}
	return pos
}

// BindAtoms builds GAO-consistent trie indexes for all atoms of a query
// (paper §4.1).
func BindAtoms(q *query.Query, db *DB, gao []string) ([]AtomIndex, error) {
	pos := GAOPositions(gao)
	out := make([]AtomIndex, len(q.Atoms))
	for i, a := range q.Atoms {
		ai, err := BindAtom(a, db, pos)
		if err != nil {
			return nil, err
		}
		out[i] = ai
	}
	return out, nil
}

// CheckEvery is how many inner-loop steps engines may take between context
// checks; exported so all engines share the same responsiveness contract.
const CheckEvery = 4096

// Ticker counts engine steps and surfaces context cancellation with low
// overhead.
type Ticker struct {
	n   int
	ctx context.Context
}

// NewTicker returns a Ticker for ctx.
func NewTicker(ctx context.Context) *Ticker { return &Ticker{ctx: ctx} }

// Tick reports a non-nil error when the context is done; it only inspects
// the context every CheckEvery calls.
func (t *Ticker) Tick() error {
	t.n++
	if t.n%CheckEvery != 0 {
		return nil
	}
	return t.ctx.Err()
}
