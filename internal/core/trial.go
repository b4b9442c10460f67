package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/query"
	"repro/internal/relation"
)

// Pricing records how a plan's attribute order was chosen on the data
// (engine.Compile): the sampled LFTJ seeks of the chosen order against the
// structural one (hypergraph.ChooseGAO's). A plan whose order was not
// priced carries none.
type Pricing struct {
	// Seeks is the chosen order's sampled price.
	Seeks int64
	// Structural is the structural order and StructuralSeeks its sampled
	// price, or -1 when pricing gave it up once it cost more than Seeks.
	Structural      []string
	StructuralSeeks int64
	// Priced is the number of orders pricing ran.
	Priced int
}

// Trial binds candidate attribute orders of a query for pricing without
// publishing anything: an atom binds the relation's index in its order when
// the database has one, and otherwise an index the trial builds from the
// relation's contents in the generation it pinned and keeps to itself. Trial
// plans run on Gen. Keep turns the plan of the chosen order into an ordinary
// one; every index the trial built and Keep did not take is dropped with
// the trial, so pricing leaves the database no index its plans do not bind.
// A Trial is not safe for concurrent use.
type Trial struct {
	db    *DB
	gen   *Generation
	built []trialIndex
}

// trialIndex is an index a trial built: the relation it indexes and the
// canonical overlay it was built from.
type trialIndex struct {
	x     *Index
	rel   string
	canon *relation.Overlay
}

// NewTrial starts a trial on the database's current generation.
func (db *DB) NewTrial() *Trial { return &Trial{db: db, gen: db.Pin()} }

// Gen returns the generation trial plans run on: the pinned one, extended
// by the trial's own indexes.
func (t *Trial) Gen() *Generation { return t.gen }

// Plan compiles q under gao as NewPlan does, binding each atom through the
// trial.
func (t *Trial) Plan(q *query.Query, algorithm string, gao []string) (*Plan, error) {
	atoms, err := bindAtoms(q, gao, t.index)
	if err != nil {
		return nil, err
	}
	push, err := CompilePushdown(q, gao)
	if err != nil {
		return nil, err
	}
	p := &Plan{Query: q, Algorithm: algorithm, GAO: gao, Atoms: atoms, Push: push, db: t.db}
	p.Memo = countMemo(p)
	return p, nil
}

// index returns the relation's index in the attribute order perm: the
// database's, or one the trial built, or a new one the trial builds now
// from the relation's canonical contents in its generation.
func (t *Trial) index(name string, perm []int) (*Index, error) {
	db := t.db
	db.mu.Lock()
	st, ok := db.rels[name]
	var registered []*Index
	if ok {
		registered = slices.Clone(st.indexes)
	}
	db.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	if len(perm) != st.arity {
		return nil, fmt.Errorf("core: %w: %d columns bound over relation %q of arity %d", ErrArityMismatch, len(perm), name, st.arity)
	}
	var peers []*relation.Overlay
	for _, x := range registered {
		if slices.Equal(x.perm, perm) {
			return x, nil
		}
		peers = append(peers, t.gen.Overlay(x))
	}
	for _, b := range t.built {
		if b.rel == name {
			if slices.Equal(b.x.perm, perm) {
				return b.x, nil
			}
			peers = append(peers, t.gen.ovs[b.x])
		}
	}
	canon := t.gen.Overlay(registered[0])
	x := &Index{db: db, perm: slices.Clone(perm)}
	ovs := maps.Clone(t.gen.ovs)
	ovs[x] = buildOverlay(canon.Flat(), perm, peers)
	t.gen = &Generation{ovs: ovs}
	t.built = append(t.built, trialIndex{x: x, rel: name, canon: canon})
	return x, nil
}

// Keep returns plan, a plan of this trial, as an ordinary plan over the
// database: each index the trial built for it is registered with the
// relation — the very contents the trial priced when the relation has not
// been written since, else rebuilt from its current contents — unless the
// database has meanwhile built one in that order, which the plan binds
// instead.
func (t *Trial) Keep(plan *Plan) *Plan {
	db := t.db
	db.mu.Lock()
	defer db.unlock()
	kept := *plan
	kept.Atoms = slices.Clone(plan.Atoms)
	for i, a := range kept.Atoms {
		k := slices.IndexFunc(t.built, func(b trialIndex) bool { return b.x == a.Index })
		if k < 0 {
			continue
		}
		b := t.built[k]
		st := db.rels[b.rel]
		if j := slices.IndexFunc(st.indexes, func(x *Index) bool { return slices.Equal(x.perm, b.x.perm) }); j >= 0 {
			kept.Atoms[i].Index = st.indexes[j]
			continue
		}
		ov := t.gen.ovs[b.x]
		if canon := db.canonLocked(st); canon != b.canon {
			ov = db.buildIndexLocked(st, b.x.perm)
		}
		db.draftLocked()[b.x] = ov
		st.indexes = append(st.indexes, b.x)
	}
	return &kept
}

// buildOverlay builds the index of r's rows in the attribute order perm —
// or, when a pristine peer index of the same relation already holds exactly
// those rows, returns the peer's overlay, so the two indexes share one base
// trie: the swapped index of a symmetric binary relation is the canonical
// one. The indexes part ways at their next write, each overlay taking its
// own logs.
func buildOverlay(r *relation.Relation, perm []int, peers []*relation.Overlay) *relation.Overlay {
	p := r.Permute(perm)
	for _, peer := range peers {
		if peer.LogLen() == 0 && peer.Holds(p) {
			return peer
		}
	}
	return relation.NewOverlay(p)
}
