package core

import (
	"maps"

	"repro/internal/relation"
)

// Index is the one physical index: a GAO-consistent CSR trie
// (relation.CSRTrie, every level materialised as contiguous key+offset
// arrays) served through a delta overlay (relation.Overlay) — the trie
// access path the worst-case-optimal engines iterate and the gap probe
// (ProbeGap, the paper's seekGap from Algorithm 3) Minesweeper drives. The
// Index itself is only an identity plus its attribute order: its contents
// live in the database's generations (Generation), so DB.ApplyDelta advances
// every index, and every compiled plan over them, without rebinding
// anything; DB.Add replaces them the same way. The index over a relation's
// identity attribute order, which DB.Add builds, is that relation's one copy
// (relState.indexes[0]): the database keeps no flat rows beside it, and
// every other order is built from it. An index, once built, lives as long
// as its database.
type Index struct {
	db *DB
	// perm is the attribute order: perm[k] is the relation column stored at
	// index position k.
	perm []int
}

// Generation is one consistent cut of the database: the contents of every
// live index as of one write. A generation is immutable. A write builds
// every overlay it changes first and then publishes the next generation in
// a single atomic store (DB.unlock), so a reader that pins one (DB.Pin: one
// atomic load, no lock, no allocation) sees each write wholly or not at all,
// across every relation the write touched, for as long as it holds it.
// Atoms bound to the same index resolve to the same overlay, so self-joins
// agree by construction.
type Generation struct {
	ovs map[*Index]*relation.Overlay
}

// Overlay returns x's contents in this generation. An index the generation
// does not carry is newer than it (bound after a Lease began and not pinned
// through it) and reads what the database holds for it now.
func (g *Generation) Overlay(x *Index) *relation.Overlay {
	if ov, ok := g.ovs[x]; ok {
		return ov
	}
	return x.db.Pin().ovs[x]
}

// with returns g extended by the current contents of every atom index g
// does not carry yet, or g itself when it carries them all.
func (g *Generation) with(atoms []AtomIndex) *Generation {
	var ovs map[*Index]*relation.Overlay
	for _, a := range atoms {
		if _, ok := g.ovs[a.Index]; ok {
			continue
		}
		if ovs == nil {
			ovs = maps.Clone(g.ovs)
		}
		if _, ok := ovs[a.Index]; !ok {
			ovs[a.Index] = g.Overlay(a.Index)
		}
	}
	if ovs == nil {
		return g
	}
	return &Generation{ovs: ovs}
}

// Pin returns the database's current generation: the one consistent cut an
// execution reads from its start to its end.
func (db *DB) Pin() *Generation { return db.gen.Load() }

// draftLocked returns the generation the write holding DB.mu is building,
// starting it as a copy of the published one on first use. DB.unlock
// publishes it.
func (db *DB) draftLocked() map[*Index]*relation.Overlay {
	if db.draft == nil {
		db.draft = maps.Clone(db.gen.Load().ovs)
	}
	return db.draft
}

// overlayLocked returns x's contents as the write holding DB.mu leaves them
// so far.
func (db *DB) overlayLocked(x *Index) *relation.Overlay {
	if db.draft != nil {
		return db.draft[x]
	}
	return db.gen.Load().ovs[x]
}

// unlock publishes the generation the write built, if any, in one atomic
// store, and releases DB.mu.
func (db *DB) unlock() {
	if db.draft != nil {
		db.gen.Store(&Generation{ovs: db.draft})
		db.draft = nil
	}
	db.mu.Unlock()
}
