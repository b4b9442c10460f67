package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/relation"
)

// ErrUnknownBackend reports a backend name outside the registered set; API
// callers branch with errors.Is instead of matching message text.
var ErrUnknownBackend = errors.New("unknown index backend")

// Backend names a physical trie-index implementation. The paper's engines
// (§4.1) are defined against an abstract trie/B-tree index; this reproduction
// offers three interchangeable realizations of that contract so they can be
// differential-tested and benchmarked against each other.
type Backend string

const (
	// BackendFlat is the reference backend: the sorted flat relation itself,
	// with child ranges re-derived by binary search over row ranges on every
	// cursor operation. Zero extra memory, zero build cost beyond the sort.
	BackendFlat Backend = "flat"
	// BackendCSR materializes each trie level as contiguous key+offset
	// arrays at index-build time (relation.CSRTrie): cursor Open/Next become
	// O(1), SeekGE gallops over a dense array, and Minesweeper's gap probes
	// run one bounded binary search per level. Costs one extra O(arity · n)
	// build pass and up to arity·n keys of memory per index. CSR indexes are
	// maintained incrementally under DB.ApplyDelta through a delta overlay
	// (relation.Overlay), so incremental views keep this backend's speed.
	BackendCSR Backend = "csr"
	// BackendCSRSharded partitions each CSR trie into disjoint shards by
	// contiguous first-attribute ranges (relation.ShardedCSR). Sequential
	// execution matches BackendCSR; the §4.10 parallel Count path maps jobs
	// one-to-one onto shards so every worker binds its own physically
	// disjoint index — no shared-array cache contention between cores.
	BackendCSRSharded Backend = "csr-sharded"
)

// DefaultBackend is used when no backend is selected. The CSR backend is the
// default now that prepared, repeatedly executed queries dominate the
// workloads and incremental views maintain CSR indexes through delta
// overlays; select BackendFlat explicitly for one-shot queries on
// memory-tight settings (it is also the differential-testing reference).
const DefaultBackend = BackendCSR

// ParseBackend resolves a user-supplied backend name; empty selects
// DefaultBackend.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "":
		return DefaultBackend, nil
	case BackendFlat:
		return BackendFlat, nil
	case BackendCSR:
		return BackendCSR, nil
	case BackendCSRSharded:
		return BackendCSRSharded, nil
	}
	return "", fmt.Errorf("core: %w %q (want %q, %q, or %q)",
		ErrUnknownBackend, s, BackendFlat, BackendCSR, BackendCSRSharded)
}

// TrieCursor is the per-execution iteration handle over one GAO-consistent
// index, with the trie contract Leapfrog Triejoin is defined against
// (paper §2.2): Open descends to the first child of the current node, Up
// pops back, Next/SeekGE move within the current level in increasing key
// order (no-ops at the end of a level; callers check AtEnd). Cursors are
// single-goroutine; obtain a fresh one per execution from the index.
type TrieCursor interface {
	Open()
	Up()
	Next()
	SeekGE(v int64)
	AtEnd() bool
	Key() int64
}

// IndexBackend is one GAO-consistent physical index over a relation: the
// trie access path (NewCursor) the worst-case-optimal engines iterate, plus
// the least-upper-bound/greatest-lower-bound gap probe (ProbeGap, the
// paper's seekGap from Algorithm 3) Minesweeper drives. Implementations are
// safe for concurrent executions: a cursor obtained from NewCursor sees one
// immutable snapshot for its whole lifetime, even if the index is advanced
// by DB.ApplyDelta concurrently. Direct ProbeGap calls on an updatable
// index read its current state per call — executions that interleave many
// probes pin a stable view first via SnapshotAtoms (the engines do this at
// the start of every run).
type IndexBackend interface {
	// Backend identifies the implementation.
	Backend() Backend
	// Arity returns the number of indexed attributes.
	Arity() int
	// Len returns the number of tuples.
	Len() int
	// NewCursor returns a fresh trie cursor positioned at the root.
	NewCursor() TrieCursor
	// ProbeGap probes with a full-arity point: found == true when the tuple
	// is present, else the maximal empty gap box around the point (§4.5).
	ProbeGap(point []int64) (relation.Gap, bool)
}

// ShardedIndex is implemented by backends that partition the trie into
// disjoint physical shards by the first attribute. The §4.10 parallel
// executor aligns its job cut points with ShardStarts and binds each job to
// the Restrict view covering only its own range, so concurrent workers
// touch disjoint index arrays.
type ShardedIndex interface {
	IndexBackend
	// NumShards returns the shard count.
	NumShards() int
	// ShardStarts returns the smallest first-attribute value of each shard,
	// in increasing order.
	ShardStarts() []int64
	// Restrict returns a view over the shards intersecting the
	// first-attribute range [lo, hi). Within that range the view behaves
	// exactly like the full index.
	Restrict(lo, hi int64) IndexBackend
}

// flatIndex adapts the sorted relation itself as an IndexBackend.
type flatIndex struct {
	r *relation.Relation
}

func (f flatIndex) Backend() Backend      { return BackendFlat }
func (f flatIndex) Arity() int            { return f.r.Arity() }
func (f flatIndex) Len() int              { return f.r.Len() }
func (f flatIndex) NewCursor() TrieCursor { return relation.NewTrieIterator(f.r) }
func (f flatIndex) ProbeGap(point []int64) (relation.Gap, bool) {
	return f.r.ProbeGap(point)
}

// csrIndex serves a CSR trie through a delta overlay snapshot. The snapshot
// pointer is swapped atomically by DB.ApplyDelta, so executions in flight
// keep the snapshot they pinned (via Snapshot or NewCursor) while new
// executions see the updated contents — this is what keeps plans compiled
// against the CSR backend valid across incremental updates. The index over
// a relation's identity attribute order doubles as that relation's source of
// truth once a delta has landed (relState.canon): the database keeps no flat
// copy beside it.
type csrIndex struct {
	ov atomic.Pointer[relation.Overlay]
}

func newCSRIndex(r *relation.Relation) *csrIndex {
	c := &csrIndex{}
	c.ov.Store(relation.NewOverlay(r))
	return c
}

func (c *csrIndex) Backend() Backend      { return BackendCSR }
func (c *csrIndex) Arity() int            { return c.ov.Load().Arity() }
func (c *csrIndex) Len() int              { return c.ov.Load().Len() }
func (c *csrIndex) NewCursor() TrieCursor { return c.ov.Load().NewCursor() }
func (c *csrIndex) ProbeGap(point []int64) (relation.Gap, bool) {
	return c.ov.Load().ProbeGap(point)
}

// Snapshot implements Snapshotter: the returned view is pinned to the
// overlay state at call time, so every probe and cursor an execution takes
// through it reads one consistent index state.
func (c *csrIndex) Snapshot() IndexBackend { return overlayView{ov: c.ov.Load()} }

// applyDelta folds an update batch (already sorted in this index's
// attribute order and filtered to the overlay invariants) into a new
// overlay snapshot. Callers serialize applyDelta under the DB lock.
func (c *csrIndex) applyDelta(ins, dels *relation.Relation) {
	c.ov.Store(c.ov.Load().ApplySorted(ins, dels))
}

// PendingDelta returns the overlay log size (tuples applied since the last
// compaction); DB.OverlayDepth aggregates it for the metrics layer.
func (c *csrIndex) PendingDelta() int { return c.ov.Load().LogLen() }

// overlayView is one immutable overlay snapshot served as an IndexBackend.
type overlayView struct {
	ov *relation.Overlay
}

func (v overlayView) Backend() Backend      { return BackendCSR }
func (v overlayView) Arity() int            { return v.ov.Arity() }
func (v overlayView) Len() int              { return v.ov.Len() }
func (v overlayView) NewCursor() TrieCursor { return v.ov.NewCursor() }
func (v overlayView) ProbeGap(point []int64) (relation.Gap, bool) {
	return v.ov.ProbeGap(point)
}

// Snapshotter is implemented by index backends whose contents can advance
// in place under DB.ApplyDelta; Snapshot returns a stable point-in-time
// view. Engines pin their atoms through SnapshotAtoms at the start of every
// execution so a concurrent delta batch can never mix two index states
// within one run.
type Snapshotter interface {
	Snapshot() IndexBackend
}

// SnapshotAtoms resolves every snapshottable atom index to a single
// point-in-time view for the duration of one execution. Atoms bound to the
// same index object resolve to the same snapshot, so self-joins see one
// consistent relation state; the input slice is returned unchanged when
// nothing is snapshottable.
func SnapshotAtoms(atoms []AtomIndex) []AtomIndex {
	snapshottable := false
	for _, a := range atoms {
		if _, ok := a.Index.(Snapshotter); ok {
			snapshottable = true
			break
		}
	}
	if !snapshottable {
		return atoms
	}
	return snapshotWith(atoms, make(map[IndexBackend]IndexBackend, len(atoms)))
}

// snapshotWith resolves snapshottable atom indexes through memo, taking and
// memoizing a snapshot for indexes not yet present; the per-execution
// SnapshotAtoms passes a fresh memo, a Lease its persistent one. The input
// slice is copied only when something actually resolves.
func snapshotWith(atoms []AtomIndex, memo map[IndexBackend]IndexBackend) []AtomIndex {
	out := atoms
	copied := false
	for i, a := range atoms {
		s, ok := a.Index.(Snapshotter)
		if !ok {
			continue
		}
		v, seen := memo[a.Index]
		if !seen {
			v = s.Snapshot()
			memo[a.Index] = v
		}
		if !copied {
			out = append([]AtomIndex(nil), atoms...)
			copied = true
		}
		out[i].Index = v
	}
	return out
}

// shardedIndex adapts a sharded CSR trie as a ShardedIndex.
type shardedIndex struct {
	t *relation.ShardedCSR
}

func (s shardedIndex) Backend() Backend      { return BackendCSRSharded }
func (s shardedIndex) Arity() int            { return s.t.Arity() }
func (s shardedIndex) Len() int              { return s.t.Len() }
func (s shardedIndex) NewCursor() TrieCursor { return relation.NewShardedCursor(s.t) }
func (s shardedIndex) ProbeGap(point []int64) (relation.Gap, bool) {
	return s.t.ProbeGap(point)
}
func (s shardedIndex) NumShards() int       { return s.t.NumShards() }
func (s shardedIndex) ShardStarts() []int64 { return s.t.ShardStarts() }
func (s shardedIndex) Restrict(lo, hi int64) IndexBackend {
	r := s.t.Restrict(lo, hi)
	if r.NumShards() == 1 {
		// The common case under shard-aligned jobs: the job covers exactly
		// one shard, so hand out the shard trie directly — its cursors are
		// plain CSR cursors with zero composition overhead, and its gap
		// probes may overreach the shard boundary, which is sound inside
		// the job's own range.
		return shardTrieIndex{t: r.Shard(0)}
	}
	return shardedIndex{t: r}
}

// shardTrieIndex serves one shard of a sharded index as a standalone
// backend (the per-job binding of the §4.10 parallel path).
type shardTrieIndex struct {
	t *relation.CSRTrie
}

func (s shardTrieIndex) Backend() Backend      { return BackendCSRSharded }
func (s shardTrieIndex) Arity() int            { return s.t.Arity() }
func (s shardTrieIndex) Len() int              { return s.t.Len() }
func (s shardTrieIndex) NewCursor() TrieCursor { return relation.NewCSRCursor(s.t) }
func (s shardTrieIndex) ProbeGap(point []int64) (relation.Gap, bool) {
	return s.t.ProbeGap(point)
}

// RestrictAtoms returns the atom bindings with every atom whose index leads
// on the first GAO attribute (VarPos[0] == 0) restricted to the shards
// covering [lo, hi) — the per-job disjoint physical indexes of the §4.10
// parallel path. Atoms on non-sharded backends are returned unchanged; when
// nothing is sharded the input slice is returned as is.
func RestrictAtoms(atoms []AtomIndex, lo, hi int64) []AtomIndex {
	out := atoms
	copied := false
	for i, a := range atoms {
		if len(a.VarPos) == 0 || a.VarPos[0] != 0 {
			continue
		}
		si, ok := a.Index.(ShardedIndex)
		if !ok {
			continue
		}
		if !copied {
			out = append([]AtomIndex(nil), atoms...)
			copied = true
		}
		out[i].Index = si.Restrict(lo, hi)
	}
	return out
}

// NewIndexBackend wraps an already GAO-consistent relation in the chosen
// backend (building the CSR trie levels, shards, or overlay as needed). The
// DB's TrieIndex method is the caching entry point; this constructor serves
// callers that manage relations directly.
func NewIndexBackend(r *relation.Relation, backend Backend) (IndexBackend, error) {
	switch backend {
	case "":
		return NewIndexBackend(r, DefaultBackend)
	case BackendFlat:
		return flatIndex{r: r}, nil
	case BackendCSR:
		return newCSRIndex(r), nil
	case BackendCSRSharded:
		return shardedIndex{t: relation.NewShardedCSR(r, 0)}, nil
	}
	return nil, fmt.Errorf("core: %w %q", ErrUnknownBackend, backend)
}
