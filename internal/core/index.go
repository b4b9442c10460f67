package core

import (
	"sync/atomic"

	"repro/internal/relation"
)

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
// paper's seekGap from Algorithm 3) Minesweeper drives. It is served either
// live (the cached index, which DB.ApplyDelta advances in place) or as one
// pinned overlay snapshot (SnapshotAtoms, Lease). Both are safe for
// concurrent executions: a cursor obtained from NewCursor sees one immutable
// snapshot for its whole lifetime. Direct ProbeGap calls on a live index
// read its current state per call — executions that interleave many probes
// pin a stable view first via SnapshotAtoms (the engines do this at the
// start of every run).
type IndexBackend interface {
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

// csrIndex is the one physical index: a CSR trie (relation.CSRTrie, every
// level materialised as contiguous key+offset arrays) served through a delta
// overlay snapshot (relation.Overlay). The snapshot pointer is swapped
// atomically by DB.ApplyDelta, so executions in flight keep the snapshot
// they pinned (via SnapshotAtoms or NewCursor) while new executions see the
// updated contents — this is what keeps compiled plans, and every handle
// over them, valid and current across writes. The index over a relation's
// identity attribute order doubles as that relation's source of truth once
// a delta has landed (relState.canon): the database keeps no flat copy
// beside it.
type csrIndex struct {
	ov atomic.Pointer[relation.Overlay]
}

func newCSRIndex(r *relation.Relation) *csrIndex {
	c := &csrIndex{}
	c.ov.Store(relation.NewOverlay(r))
	return c
}

func (c *csrIndex) Arity() int            { return c.ov.Load().Arity() }
func (c *csrIndex) Len() int              { return c.ov.Load().Len() }
func (c *csrIndex) NewCursor() TrieCursor { return c.ov.Load().NewCursor() }
func (c *csrIndex) ProbeGap(point []int64) (relation.Gap, bool) {
	return c.ov.Load().ProbeGap(point)
}

// snapshot returns a view pinned to the overlay state at call time, so every
// probe and cursor an execution takes through it reads one consistent index
// state.
func (c *csrIndex) snapshot() IndexBackend { return overlayView{ov: c.ov.Load()} }

// applyDelta folds an update batch (already sorted in this index's
// attribute order and filtered to the overlay invariants) into a new
// overlay snapshot. Callers serialize applyDelta under the DB lock.
func (c *csrIndex) applyDelta(ins, dels *relation.Relation) {
	c.ov.Store(c.ov.Load().ApplySorted(ins, dels))
}

// pendingDelta returns the overlay log size (tuples applied since the last
// compaction); DB.OverlayDepth aggregates it for the metrics layer.
func (c *csrIndex) pendingDelta() int { return c.ov.Load().LogLen() }

// overlayView is one immutable overlay snapshot served as an IndexBackend.
type overlayView struct {
	ov *relation.Overlay
}

func (v overlayView) Arity() int            { return v.ov.Arity() }
func (v overlayView) Len() int              { return v.ov.Len() }
func (v overlayView) NewCursor() TrieCursor { return v.ov.NewCursor() }
func (v overlayView) ProbeGap(point []int64) (relation.Gap, bool) {
	return v.ov.ProbeGap(point)
}

// SnapshotAtoms resolves every live atom index to a single point-in-time
// view for the duration of one execution. Atoms bound to the same index
// object resolve to the same snapshot, so self-joins see one consistent
// relation state; the input slice is returned unchanged when every atom is
// already pinned (a plan pinned through a Lease).
func SnapshotAtoms(atoms []AtomIndex) []AtomIndex {
	live := false
	for _, a := range atoms {
		if _, ok := a.Index.(*csrIndex); ok {
			live = true
			break
		}
	}
	if !live {
		return atoms
	}
	return snapshotWith(atoms, make(map[IndexBackend]IndexBackend, len(atoms)))
}

// snapshotWith resolves live atom indexes through memo, taking and
// memoizing a snapshot for indexes not yet present; the per-execution
// SnapshotAtoms passes a fresh memo, a Lease its persistent one. The input
// slice is copied only when something actually resolves.
func snapshotWith(atoms []AtomIndex, memo map[IndexBackend]IndexBackend) []AtomIndex {
	out := atoms
	copied := false
	for i, a := range atoms {
		c, ok := a.Index.(*csrIndex)
		if !ok {
			continue
		}
		v, seen := memo[a.Index]
		if !seen {
			v = c.snapshot()
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
