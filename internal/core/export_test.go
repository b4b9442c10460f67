package core

import (
	"slices"

	"repro/internal/relation"
)

// IndexPerms returns the attribute orders of the named relation's indexes,
// the canonical one first.
func (db *DB) IndexPerms(name string) [][]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	var perms [][]int
	for _, x := range db.rels[name].indexes {
		perms = append(perms, slices.Clone(x.perm))
	}
	return perms
}

// IndexOverlay returns the current contents of the named relation's index
// in the attribute order perm, nil when it has none.
func (db *DB) IndexOverlay(name string, perm []int) *relation.Overlay {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, x := range db.rels[name].indexes {
		if slices.Equal(x.perm, perm) {
			return db.overlayLocked(x)
		}
	}
	return nil
}

// Perm returns the index's attribute order.
func (x *Index) Perm() []int { return x.perm }
