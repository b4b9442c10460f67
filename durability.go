package repro

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/relation"
)

// ErrCorruptLog reports unrecoverable damage to a store's durable state
// (internal/durable's typed error re-exported): a corrupt record in the
// middle of the log, an LSN gap, or a directory whose snapshots are all
// invalid. A merely torn log tail is NOT this error at the OpenStore level —
// it is tolerated, reported via RecoveryInfo.TailErr, and dropped.
var ErrCorruptLog = durable.ErrCorruptLog

// DurabilityOptions configures a store opened with OpenStore.
type DurabilityOptions struct {
	// Sync is the commit fsync policy: "group" (the default — every write
	// is fsynced before it is acknowledged, and concurrent writers share
	// fsyncs through a group-commit leader), "always" (group without the
	// accumulation window), or "none" (leave fsync to the kernel and to
	// checkpoints; a crash may lose recent acknowledged writes but never
	// corrupts recovery).
	Sync string
	// GroupWindow is how long a group-commit leader waits for more writers
	// to join its fsync; zero syncs immediately. Larger windows trade
	// per-write latency for fewer fsyncs under concurrency.
	GroupWindow time.Duration
	// MetricsName is the store label this store's durability metrics (WAL
	// fsync latency, group-commit batch size, checkpoint duration and age)
	// are registered under in the process metrics registry. Empty defaults
	// to the base name of dir; "-" disables durability metrics entirely.
	MetricsName string
	// CheckpointBytes, when positive, triggers an automatic checkpoint as
	// soon as a write pushes the un-pruned log past this size — the
	// size-based complement to a timer-driven Checkpoint loop, bounding
	// recovery replay by data volume rather than wall clock. The checkpoint
	// runs in the background off the write path; at most one runs at a
	// time, one overtaken by writes is followed by another until the log is
	// back under the budget, and a failed attempt is retried by the next
	// qualifying write.
	CheckpointBytes int64
}

// RecoveryInfo summarizes what OpenStore reconstructed from disk.
type RecoveryInfo struct {
	// SnapshotLSN is the checkpoint the store warm-started from (0 = none).
	SnapshotLSN uint64
	// Relations is the number of relations restored from the snapshot.
	Relations int
	// Replayed is the number of log records replayed on top of it.
	Replayed int
	// LastLSN is the durable log position recovery reached; new writes are
	// assigned LSNs from LastLSN+1.
	LastLSN uint64
	// TailErr, if non-nil, wraps ErrCorruptLog and describes the torn or
	// corrupt log tail found past LastLSN. Those bytes were never
	// acknowledged as durable; they have been truncated away and the store
	// is fully usable. Operators should still surface it (the integration
	// banner does) since it marks an unclean shutdown.
	TailErr error
}

// OpenStore opens (or initializes) a durable store rooted at dir. Recovery
// runs first: the newest valid snapshot is loaded, then the log tail is
// replayed through the function live writes apply their records with — a
// delta batch costs O(batch) — so recovery rebuilds exactly what the writes
// built. A snapshot or record holding a value outside the storage domain
// fails recovery with an error wrapping ErrValueOutOfRange that names the
// file. After OpenStore returns, every mutation — DefineRelation, Load,
// Apply, ApplyAll, and the Graph wrappers routing through them — is appended
// to the write-ahead log and fsynced per opts.Sync before the call returns,
// so an acknowledged write survives a crash. Call Checkpoint periodically to bound log growth
// and recovery time, and Close on shutdown.
func OpenStore(dir string, opts DurabilityOptions) (*Store, *RecoveryInfo, error) {
	policy, err := durable.ParsePolicy(opts.Sync)
	if err != nil {
		return nil, nil, err
	}
	label := opts.MetricsName
	switch label {
	case "":
		label = filepath.Base(dir)
	case "-":
		label = ""
	}
	mgr, rec, err := durable.Open(dir, durable.Options{Sync: policy, GroupWindow: opts.GroupWindow, MetricsLabel: label})
	if err != nil {
		return nil, nil, err
	}
	db := core.NewDB()
	for _, sr := range rec.Relations {
		if err := db.Add(relation.FromTuples(sr.Name, sr.Arity, sr.Tuples)); err != nil {
			mgr.Close()
			return nil, nil, fmt.Errorf("%w: snapshot %d: %v", ErrCorruptLog, rec.SnapshotLSN, err)
		}
	}
	if err := replay(db, rec.Records); err != nil {
		mgr.Close()
		return nil, nil, err
	}
	info := &RecoveryInfo{
		SnapshotLSN: rec.SnapshotLSN,
		Relations:   len(rec.Relations),
		Replayed:    len(rec.Records),
		LastLSN:     rec.LastLSN,
		TailErr:     rec.TailErr,
	}
	return &Store{db: db, dur: mgr, ckptBytes: opts.CheckpointBytes}, info, nil
}

// replay applies recovered log records to the database with apply, the
// function the live writes applied them with. A record that does not apply
// is corruption by definition: the live process applied it after logging
// it.
func replay(db *core.DB, records []durable.Record) error {
	for _, r := range records {
		if err := apply(db, r, nil); err != nil {
			return fmt.Errorf("%w: replaying record %d: %v", ErrCorruptLog, r.LSN, err)
		}
	}
	return nil
}

// write is the one write path: DefineRelation, Load, Apply and ApplyAll
// validate their arguments and hand the record here. Under the write lock it
// appends the record to the log of a durable store and applies it (apply),
// so log order equals apply order; then, with the lock released so
// concurrent writers share an fsync, it waits until the record is durable
// under the store's sync policy and lets the log trigger a checkpoint. rel
// is a Load's relation, built by the caller before taking the lock. A
// logged record must never fail to apply, here or during recovery replay,
// so records are validated before they come here; a redefinition, which
// changes nothing or fails, is settled under the lock and never logged.
func (s *Store) write(r durable.Record, rel *relation.Relation) error {
	s.mu.Lock()
	if r.Op == durable.OpDefine {
		name := strings.Clone(r.Name) // see apply
		if cur, err := s.db.Arity(name); err == nil {
			s.mu.Unlock()
			return redefine(name, cur, r.Arity)
		}
	}
	var lsn uint64
	var err error
	if s.dur != nil {
		lsn, err = s.dur.Append(r)
	}
	if err == nil {
		err = apply(s.db, r, rel)
	}
	s.mu.Unlock()
	if err != nil || s.dur == nil {
		return err
	}
	if err := s.dur.Commit(lsn); err != nil {
		return err
	}
	s.maybeCheckpoint()
	return nil
}

// apply applies one write record to the database. Live writes (write) and
// recovery (replay) both call it, so recovery rebuilds exactly what the live
// writes built. rel is an OpLoad record's relation when the caller built it
// already; nil builds it from the record.
func apply(db *core.DB, r durable.Record, rel *relation.Relation) error {
	if r.Op == durable.OpDeltas {
		return db.ApplyDeltas(r.Batches)
	}
	// Only a copy of the name may reach the heap: were r.Name to escape, so
	// would every field of r, and each Apply would allocate its batch list.
	name := strings.Clone(r.Name)
	switch r.Op {
	case durable.OpDefine:
		if cur, err := db.Arity(name); err == nil {
			return redefine(name, cur, r.Arity)
		}
		return db.Add(relation.NewBuilder(name, r.Arity).Build())
	case durable.OpLoad:
		if rel == nil {
			arity, err := db.Arity(name)
			if err != nil {
				return err
			}
			for _, t := range r.Tuples {
				if len(t) != arity {
					return fmt.Errorf("%w: load of %d-ary tuple into %q of arity %d", ErrArityMismatch, len(t), name, arity)
				}
			}
			rel = relation.FromTuples(name, arity, r.Tuples)
		}
		return db.Add(rel)
	}
	return fmt.Errorf("unknown op %d", r.Op)
}

// maybeCheckpoint starts a background checkpoint when the un-pruned log has
// outgrown DurabilityOptions.CheckpointBytes. Called after every
// acknowledged write; at most one checkpoint is in flight and none starts
// once Close has begun. A checkpoint that succeeds but was overtaken —
// writes landed while it ran and the log is still over budget — is followed
// by another at once, so a burst of writes leaves the log under budget when
// it pauses rather than waiting for the next write; a failed one is simply
// retried by the next write that still sees an oversized log —
// checkpointing is an optimization, never a correctness requirement.
func (s *Store) maybeCheckpoint() {
	if s.ckptBytes <= 0 || s.dur.UnprunedBytes() < uint64(s.ckptBytes) {
		return
	}
	s.ckptMu.Lock()
	start := !s.ckptBusy && !s.ckptClosed
	if start {
		s.ckptBusy = true
		s.ckptDone.Add(1)
	}
	s.ckptMu.Unlock()
	if !start {
		return
	}
	go func() {
		defer s.ckptDone.Done()
		for {
			lsn, err := s.checkpoint()
			s.ckptMu.Lock()
			again := err == nil && !s.ckptClosed && s.dur.LastLSN() > lsn &&
				s.dur.UnprunedBytes() >= uint64(s.ckptBytes)
			if !again {
				s.ckptBusy = false
			}
			s.ckptMu.Unlock()
			if !again {
				return
			}
		}
	}()
}

// Checkpoint snapshots every relation at the current log position and prunes
// the log and older snapshots the new snapshot supersedes. Recovery after a
// checkpoint replays only records written since, so periodic checkpoints
// bound both log growth and restart time. The capture is consistent and
// O(#relations): one database lock acquisition, paired with the current LSN
// under the store's write lock, collects every relation's immutable
// canonical overlay. Serialization, which encodes the rows straight from the
// overlays' tries with no flat copy, and file I/O happen after both locks
// are released, concurrent with new writes. On an in-memory store
// Checkpoint is a no-op.
func (s *Store) Checkpoint() error {
	if s.dur == nil {
		return nil
	}
	_, err := s.checkpoint()
	return err
}

// checkpoint is Checkpoint on a durable store; it also reports the log
// position the snapshot was taken at.
func (s *Store) checkpoint() (lsn uint64, err error) {
	// LastLSN and the relation capture must agree: hold the write lock so
	// no append lands between reading one and the other.
	s.mu.Lock()
	lsn = s.dur.LastLSN()
	rels := s.db.Snapshot()
	s.mu.Unlock()
	return lsn, s.dur.Checkpoint(lsn, rels)
}

// LastLSN returns the store's current log position (0 on an in-memory
// store): the LSN of the last write appended to the log.
func (s *Store) LastLSN() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.LastLSN()
}

// Close fsyncs and closes the durable log; further writes fail. Queries keep
// working — the in-memory state is intact — but the store no longer persists
// anything. Close on an in-memory store is a no-op. Close does not
// checkpoint; call Checkpoint first for a replay-free next start. It does
// wait for a size-triggered background checkpoint in flight, so once Close
// returns nothing of this store touches the directory again and another
// OpenStore may take it over.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.ckptMu.Lock()
	s.ckptClosed = true
	s.ckptMu.Unlock()
	s.ckptDone.Wait()
	err := s.dur.Close()
	if err != nil && errors.Is(err, durable.ErrClosed) {
		return nil
	}
	return err
}
