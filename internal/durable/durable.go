package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/relation"
)

// Record ops, in the order they appear in a record body after the LSN.
const (
	OpDefine byte = 1 // define a relation: name, arity
	OpLoad   byte = 2 // bulk-replace a relation's rows: name, tuples
	OpDeltas byte = 3 // atomic multi-relation update: per relation name, inserts, deletes
)

// Options configures a Manager.
type Options struct {
	// Sync is the commit durability policy; zero value selects SyncGroup.
	Sync SyncPolicy
	// GroupWindow is how long a SyncGroup sync leader waits for more
	// commits to join its fsync. Zero syncs immediately (still batching
	// whatever arrived while the previous fsync was in flight).
	GroupWindow time.Duration
	// MetricsLabel, when non-empty, registers this manager's durability
	// metrics (WAL fsync latency, group-commit batch size, checkpoint
	// duration and age) in the process metrics registry under
	// store=<MetricsLabel>. Empty disables instrumentation.
	MetricsLabel string
}

// Record is one write as the log holds it: what Append logs, and what
// recovery surfaces for replay.
type Record struct {
	LSN uint64
	Op  byte

	// OpDefine and OpLoad target one relation.
	Name   string
	Arity  int       // OpDefine
	Tuples [][]int64 // OpLoad

	// OpDeltas carries an atomic multi-relation batch.
	Batches []core.DeltaBatch
}

// Recovered is what Open reconstructed from disk: the newest valid snapshot
// plus every log record after it, in LSN order. The caller folds Relations
// into a fresh database, replays Records through the same code paths that
// produced them, and reports TailErr (if any) to the operator.
type Recovered struct {
	// SnapshotLSN is the log position the snapshot captures (0 = none).
	SnapshotLSN uint64
	// Relations are the snapshot's relations, sorted by name.
	Relations []SnapRelation
	// Records are the log records after SnapshotLSN, contiguous by LSN.
	Records []Record
	// LastLSN is the last durable LSN; appends resume at LastLSN+1.
	LastLSN uint64
	// TailErr, if non-nil, wraps ErrCorruptLog and describes the torn or
	// corrupt log tail that was dropped (and truncated away) past LastLSN.
	TailErr error
}

// Manager is the durability endpoint a store writes through: append a
// record, apply in memory, then Commit the returned LSN before
// acknowledging. Append and Commit are safe for concurrent use;
// Checkpoint and Close serialize against in-flight fsyncs internally.
type Manager struct {
	dir string
	log *log

	// ckptHist times Checkpoint; lastCkpt holds the wall-clock nanos of the
	// last successful checkpoint for the age gauge. Both are inert when
	// Options.MetricsLabel was empty.
	ckptHist *metrics.Histogram
	lastCkpt atomic.Int64
}

// Open attaches to (or initializes) the durable state in dir and returns
// the manager plus everything recovery reconstructed. dir is created if
// missing. Open fails on unrecoverable damage: a mid-log corruption, an LSN
// gap, or a directory whose every snapshot is invalid while the log starts
// past LSN 1.
func Open(dir string, opts Options) (*Manager, *Recovered, error) {
	if opts.Sync == "" {
		opts.Sync = SyncGroup
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}

	rec := &Recovered{}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, nil, err
	}
	// Newest valid snapshot wins; an invalid one (torn rename window, bit
	// rot) falls back to the next-newest, which the pruner keeps around
	// until a newer snapshot has fully replaced it.
	for i := len(snaps) - 1; i >= 0; i-- {
		lsn, rels, serr := readSnapshot(snaps[i])
		if errors.Is(serr, relation.ErrValueOutOfRange) {
			// Intact but holding a value no write stores: not damage an
			// older snapshot would repair, so refuse rather than guess.
			return nil, nil, fmt.Errorf("%w: %w", ErrCorruptLog, serr)
		}
		if serr != nil {
			continue
		}
		rec.SnapshotLSN = lsn
		rec.Relations = rels
		break
	}

	l, raws, tailErr, err := openLog(dir, opts.Sync, opts.GroupWindow, rec.SnapshotLSN)
	if err != nil {
		return nil, nil, err
	}
	rec.TailErr = tailErr
	rec.Records = make([]Record, 0, len(raws))
	for _, r := range raws {
		dec, derr := decodeRecord(r)
		if derr != nil {
			l.close()
			return nil, nil, fmt.Errorf("%w: %s: record %d: %w", ErrCorruptLog, r.seg, r.lsn, derr)
		}
		rec.Records = append(rec.Records, dec)
	}
	rec.LastLSN = l.nextLSN - 1
	if rec.SnapshotLSN == 0 && len(snaps) > 0 && len(rec.Relations) == 0 && rec.LastLSN > 0 && len(rec.Records) == 0 {
		// Snapshots exist but none validated, and the log alone cannot
		// reach the present: refusing is safer than silently serving an
		// empty store over a directory that clearly held data.
		l.close()
		return nil, nil, fmt.Errorf("%w: no valid snapshot and log starts past LSN 1", ErrCorruptLog)
	}
	m := &Manager{dir: dir, log: l}
	if opts.MetricsLabel != "" {
		reg := metrics.Default()
		l.fsyncHist = reg.Histogram("graphjoind_wal_fsync_seconds",
			"WAL flush+fsync latency per group-commit round.", "store", opts.MetricsLabel)
		l.groupHist = reg.HistogramBuckets("graphjoind_wal_group_commit_records",
			"Log records made durable per fsync round.", metrics.SizeBuckets, "store", opts.MetricsLabel)
		m.ckptHist = reg.Histogram("graphjoind_checkpoint_seconds",
			"Snapshot checkpoint duration (rotate + write + prune).", "store", opts.MetricsLabel)
		reg.GaugeFunc("graphjoind_checkpoint_age_seconds",
			"Seconds since the last successful checkpoint (-1 before the first).",
			m.checkpointAge, "store", opts.MetricsLabel)
	}
	return m, rec, nil
}

// checkpointAge backs the graphjoind_checkpoint_age_seconds gauge.
func (m *Manager) checkpointAge() float64 {
	t := m.lastCkpt.Load()
	if t == 0 {
		return -1
	}
	return time.Since(time.Unix(0, t)).Seconds()
}

func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths) // zero-padded hex: lexicographic == numeric
	return paths, nil
}

// decodeRecord parses one record's payload. A tuple outside the storage
// domain fails it with an error wrapping relation.ErrValueOutOfRange: the
// write paths reject such values before logging, so replaying one would load
// what no write could have stored.
func decodeRecord(r rawRecord) (Record, error) {
	out := Record{LSN: r.lsn, Op: r.op}
	d := codec.NewDec(r.body)
	var tuples [][][]int64
	switch r.op {
	case OpDefine:
		out.Name = d.Str()
		out.Arity = d.Int()
	case OpLoad:
		out.Name = d.Str()
		out.Tuples = d.Tuples()
		tuples = append(tuples, out.Tuples)
	case OpDeltas:
		n := d.Count()
		out.Batches = make([]core.DeltaBatch, 0, n)
		for i := 0; i < n; i++ {
			b := core.DeltaBatch{Name: d.Str()}
			b.Inserts = d.Tuples()
			b.Deletes = d.Tuples()
			out.Batches = append(out.Batches, b)
			tuples = append(tuples, b.Inserts, b.Deletes)
		}
	default:
		return out, fmt.Errorf("unknown op %d", r.op)
	}
	if err := d.Err(); err != nil {
		return out, err
	}
	for _, ts := range tuples {
		for _, t := range ts {
			if !relation.InDomain(t) {
				return out, fmt.Errorf("tuple %v: %w", t, relation.ErrValueOutOfRange)
			}
		}
	}
	return out, nil
}

// Append logs one write record — its Op and the fields that op reads — and
// returns its LSN; the record's own LSN is ignored.
func (m *Manager) Append(r Record) (uint64, error) {
	var e codec.Enc
	switch r.Op {
	case OpDefine:
		e.Str(r.Name)
		e.Int(r.Arity)
	case OpLoad:
		e.Str(r.Name)
		e.Tuples(r.Tuples)
	case OpDeltas:
		e.Int(len(r.Batches))
		for _, b := range r.Batches {
			e.Str(b.Name)
			e.Tuples(b.Inserts)
			e.Tuples(b.Deletes)
		}
	default:
		return 0, fmt.Errorf("durable: unknown op %d", r.Op)
	}
	return m.log.append(r.Op, e.Bytes())
}

// Commit blocks until lsn is durable under the configured sync policy.
// The write it covers must not be acknowledged before Commit returns.
func (m *Manager) Commit(lsn uint64) error { return m.log.commit(lsn) }

// LastLSN returns the highest LSN appended so far.
func (m *Manager) LastLSN() uint64 {
	m.log.mu.Lock()
	defer m.log.mu.Unlock()
	return m.log.appended
}

// UnprunedBytes returns the on-disk size of the log segments a checkpoint
// has not yet pruned — the recovery-replay volume, and the signal
// size-triggered checkpointing watches.
func (m *Manager) UnprunedBytes() uint64 { return m.log.unprunedBytes() }

// Checkpoint rotates the log, durably writes the contents of rels as the
// snapshot at lsn — which must be the last LSN already applied to those
// overlays — and prunes the segments and snapshots the new snapshot
// supersedes. After a successful checkpoint, recovery replays only records
// past lsn. The overlays are immutable, so the caller captures them with lsn
// under its own lock and calls this with no lock held; the rows are encoded
// straight from their tries.
func (m *Manager) Checkpoint(lsn uint64, rels []*relation.Overlay) error {
	start := time.Now()
	// Rotation fsyncs all appended records, so the snapshot never claims an
	// LSN the log hasn't durably reached.
	if err := m.log.rotate(); err != nil {
		return err
	}
	if _, err := writeSnapshot(m.dir, lsn, rels); err != nil {
		return err
	}
	m.log.prune(lsn)
	if m.ckptHist != nil {
		m.ckptHist.ObserveSince(start)
	}
	m.lastCkpt.Store(time.Now().UnixNano())
	return nil
}

// Close fsyncs and closes the log. Further appends and commits fail with
// ErrClosed.
func (m *Manager) Close() error { return m.log.close() }
