package repro

import (
	"sort"

	"repro/internal/core"
	"repro/internal/durable"
)

// Delta is one tuple-level change in a write batch: an insertion by default,
// a deletion when Delete is set. Build them with Insert and Remove.
type Delta struct {
	// Tuple is the affected tuple; its width must match the relation's
	// declared arity and its values must lie in the storage domain.
	Tuple []int64
	// Delete marks the tuple for removal; the zero value inserts.
	Delete bool
}

// Insert returns a Delta inserting the given tuple.
func Insert(tuple ...int64) Delta { return Delta{Tuple: tuple} }

// Remove returns a Delta deleting the given tuple.
func Remove(tuple ...int64) Delta { return Delta{Tuple: tuple, Delete: true} }

// ApplyAll applies update batches to several relations as one atomic write:
// all batches land as one database generation (core.DB.ApplyDeltas), so no
// concurrent reader — a ReadTxn/Batch snapshot, or a single Count, Enumerate
// or Rows call outside any transaction, parallel or not — can observe some
// relations updated and others not.
// This is the write-transaction counterpart of Apply for schemas whose
// invariants span relations, such as the benchmark schema's "edge" (both
// directions of every edge) and "fwd" (the u<v one).
//
// Per relation the semantics match Apply: inserts already present and deletes
// absent are ignored, and a tuple appearing as both an insert and a delete in
// one batch resolves as delete-after-insert. Every batch is schema-checked up
// front — unknown relations (ErrUnknownRelation), arity mismatches
// (ErrArityMismatch), and out-of-domain values (ErrValueOutOfRange) fail the
// whole call before anything is applied. Like Apply, the write routes through
// the delta path, so compiled plans stay valid and every Prepared handle
// follows the write.
func (s *Store) ApplyAll(batches map[string][]Delta) error {
	names := make([]string, 0, len(batches))
	for name := range batches {
		names = append(names, name)
	}
	sort.Strings(names)
	checked := make([]core.DeltaBatch, 0, len(names))
	for _, name := range names {
		b, err := s.deltaBatch(name, batches[name])
		if err != nil {
			return err
		}
		checked = append(checked, b)
	}
	return s.write(durable.Record{Op: durable.OpDeltas, Batches: checked}, nil)
}

// deltaBatch schema-checks one relation's deltas and splits them into the
// insert/delete lists the core write path takes.
func (s *Store) deltaBatch(name string, deltas []Delta) (core.DeltaBatch, error) {
	arity, err := s.Arity(name)
	if err != nil {
		return core.DeltaBatch{}, err
	}
	b := core.DeltaBatch{Name: name}
	for _, d := range deltas {
		op := "insert"
		if d.Delete {
			op = "delete"
		}
		if err := checkDomain(op, name, arity, d.Tuple); err != nil {
			return core.DeltaBatch{}, err
		}
		if d.Delete {
			b.Deletes = append(b.Deletes, d.Tuple)
		} else {
			b.Inserts = append(b.Inserts, d.Tuple)
		}
	}
	return b, nil
}
