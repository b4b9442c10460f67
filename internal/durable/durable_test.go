package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func openT(t *testing.T, dir string, opts Options) (*Manager, *Recovered) {
	t.Helper()
	m, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m, rec
}

func appendCommit(t *testing.T, m *Manager, op byte, i int) uint64 {
	t.Helper()
	var lsn uint64
	var err error
	switch op {
	case OpDefine:
		lsn, err = m.AppendDefine(fmt.Sprintf("r%d", i), 2)
	case OpLoad:
		lsn, err = m.AppendLoad("e", [][]int64{{int64(i), int64(i + 1)}})
	case OpDeltas:
		lsn, err = m.AppendDeltas([]core.DeltaBatch{{
			Name:    "e",
			Inserts: [][]int64{{int64(i), 0}},
			Deletes: [][]int64{{0, int64(i)}},
		}})
	}
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := m.Commit(lsn); err != nil {
		t.Fatalf("commit %d: %v", lsn, err)
	}
	return lsn
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, rec := openT(t, dir, Options{})
	if rec.LastLSN != 0 || len(rec.Records) != 0 || rec.TailErr != nil {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendCommit(t, m, OpDefine, 0)
	appendCommit(t, m, OpLoad, 1)
	appendCommit(t, m, OpDeltas, 2)
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2, rec2 := openT(t, dir, Options{})
	defer m2.Close()
	if rec2.LastLSN != 3 {
		t.Fatalf("LastLSN = %d, want 3", rec2.LastLSN)
	}
	if len(rec2.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec2.Records))
	}
	r := rec2.Records[0]
	if r.Op != OpDefine || r.Name != "r0" || r.Arity != 2 || r.LSN != 1 {
		t.Fatalf("record 0 = %+v", r)
	}
	r = rec2.Records[1]
	if r.Op != OpLoad || r.Name != "e" || len(r.Tuples) != 1 || r.Tuples[0][0] != 1 {
		t.Fatalf("record 1 = %+v", r)
	}
	r = rec2.Records[2]
	if r.Op != OpDeltas || len(r.Batches) != 1 || r.Batches[0].Name != "e" ||
		len(r.Batches[0].Inserts) != 1 || len(r.Batches[0].Deletes) != 1 {
		t.Fatalf("record 2 = %+v", r)
	}
	// Appends resume contiguously after recovery.
	lsn, err := m2.AppendDefine("r9", 3)
	if err != nil || lsn != 4 {
		t.Fatalf("post-recovery append LSN = %d, %v; want 4", lsn, err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	m, _ := openT(t, dir, Options{Sync: SyncGroup})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := m.AppendDeltas([]core.DeltaBatch{{Name: "e", Inserts: [][]int64{{int64(w), int64(i)}}}})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := m.Commit(lsn); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.LastLSN(); got != writers*each {
		t.Fatalf("LastLSN = %d, want %d", got, writers*each)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m2, rec := openT(t, dir, Options{})
	defer m2.Close()
	if rec.LastLSN != writers*each || len(rec.Records) != writers*each {
		t.Fatalf("recovered LastLSN=%d records=%d, want %d", rec.LastLSN, len(rec.Records), writers*each)
	}
}

func TestCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	m, _ := openT(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 10; i++ {
		appendCommit(t, m, OpDeltas, i)
	}
	rel := relation.FromTuples("e", 2, [][]int64{{1, 2}, {3, 4}})
	if err := m.Checkpoint(10, []*relation.Overlay{relation.NewOverlay(rel)}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Records after the checkpoint replay on top of the snapshot.
	appendCommit(t, m, OpDeltas, 100)
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2, rec := openT(t, dir, Options{})
	if rec.SnapshotLSN != 10 {
		t.Fatalf("SnapshotLSN = %d, want 10", rec.SnapshotLSN)
	}
	if len(rec.Relations) != 1 || rec.Relations[0].Name != "e" || len(rec.Relations[0].Tuples) != 2 {
		t.Fatalf("snapshot relations = %+v", rec.Relations)
	}
	if len(rec.Records) != 1 || rec.Records[0].LSN != 11 {
		t.Fatalf("post-snapshot records = %+v", rec.Records)
	}
	// A second checkpoint supersedes the first snapshot and the old segments.
	if err := m2.Checkpoint(11, []*relation.Overlay{relation.NewOverlay(rel)}); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots after prune = %v, want 1", snaps)
	}
	m3, rec3 := openT(t, dir, Options{})
	defer m3.Close()
	if rec3.SnapshotLSN != 11 || len(rec3.Records) != 0 || rec3.LastLSN != 11 {
		t.Fatalf("after 2nd checkpoint: %+v", rec3)
	}
}

func TestTornTailTolerated(t *testing.T) {
	for _, cut := range []int{1, 3, 7} { // bytes chopped off the tail
		dir := t.TempDir()
		m, _ := openT(t, dir, Options{})
		for i := 0; i < 5; i++ {
			appendCommit(t, m, OpDeltas, i)
		}
		m.Close()

		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if len(segs) != 1 {
			t.Fatalf("segments = %v", segs)
		}
		info, _ := os.Stat(segs[0])
		if err := os.Truncate(segs[0], info.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		m2, rec := openT(t, dir, Options{})
		if rec.TailErr == nil || !errors.Is(rec.TailErr, ErrCorruptLog) {
			t.Fatalf("cut %d: TailErr = %v, want ErrCorruptLog", cut, rec.TailErr)
		}
		if rec.LastLSN != 4 || len(rec.Records) != 4 {
			t.Fatalf("cut %d: LastLSN=%d records=%d, want 4", cut, rec.LastLSN, len(rec.Records))
		}
		// The torn tail is gone for good: appends extend valid history and a
		// clean reopen sees no corruption.
		lsn := appendCommit(t, m2, OpDeltas, 99)
		if lsn != 5 {
			t.Fatalf("cut %d: append after truncation LSN = %d, want 5", cut, lsn)
		}
		m2.Close()
		m3, rec3 := openT(t, dir, Options{})
		if rec3.TailErr != nil || rec3.LastLSN != 5 {
			t.Fatalf("cut %d: reopen after repair: %+v", cut, rec3)
		}
		m3.Close()
	}
}

func TestCorruptBodyTolerated(t *testing.T) {
	dir := t.TempDir()
	m, _ := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		appendCommit(t, m, OpDeltas, i)
	}
	m.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a bit inside the last record's body
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, rec := openT(t, dir, Options{})
	defer m2.Close()
	if !errors.Is(rec.TailErr, ErrCorruptLog) {
		t.Fatalf("TailErr = %v, want ErrCorruptLog", rec.TailErr)
	}
	if rec.LastLSN != 2 || len(rec.Records) != 2 {
		t.Fatalf("LastLSN=%d records=%d, want 2", rec.LastLSN, len(rec.Records))
	}
}

func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, _ := openT(t, dir, Options{Sync: SyncNone})
	rel := relation.FromTuples("e", 2, [][]int64{{1, 2}})
	appendCommit(t, m, OpDeltas, 0)
	if err := m.Checkpoint(1, []*relation.Overlay{relation.NewOverlay(rel)}); err != nil {
		t.Fatal(err)
	}
	appendCommit(t, m, OpDeltas, 1)
	rel2 := relation.FromTuples("e", 2, [][]int64{{1, 2}, {3, 4}, {5, 6}})
	if err := m.Checkpoint(2, []*relation.Overlay{relation.NewOverlay(rel2)}); err != nil {
		t.Fatal(err)
	}
	// Resurrect an older snapshot alongside, then corrupt the newest.
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %v", snaps)
	}
	old := snapPath(dir, 1)
	if _, err := writeSnapshot(dir, 1, []*relation.Overlay{relation.NewOverlay(rel)}); err != nil {
		t.Fatal(err)
	}
	newest := snapPath(dir, 2)
	data, _ := os.ReadFile(newest)
	data[len(data)-1] ^= 0xff
	os.WriteFile(newest, data, 0o644)
	m.Close()

	// No record with LSN 2 survives in the log (checkpoint 2 pruned it), so
	// falling back to snapshot 1 must fail the LSN-contiguity check rather
	// than silently lose the update — unless the log still covers it. Here
	// segments after checkpoint 2 start at LSN 3, so expect a gap error.
	_, _, err := Open(dir, Options{})
	if err == nil || !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("Open with newest snapshot corrupt and history pruned: err = %v, want ErrCorruptLog", err)
	}
	_ = old
}

func TestChunkCutsAlignFirstAttribute(t *testing.T) {
	// 3 distinct first attributes, each with enough rows to span chunks.
	var tuples [][]int64
	for a := int64(0); a < 3; a++ {
		for b := int64(0); b < snapChunkRows; b++ {
			tuples = append(tuples, []int64{a, b})
		}
	}
	r := relation.FromTuples("e", 2, tuples)
	cuts := chunkCuts(relation.NewOverlay(r))
	if len(cuts) < 3 {
		t.Fatalf("cuts = %v, want multiple chunks", cuts)
	}
	for _, c := range cuts[1 : len(cuts)-1] {
		if r.Value(c-1, 0) == r.Value(c, 0) {
			t.Fatalf("cut at %d splits first-attribute group %d", c, r.Value(c, 0))
		}
	}
	if cuts[len(cuts)-1] != r.Len() {
		t.Fatalf("last cut %d != Len %d", cuts[len(cuts)-1], r.Len())
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"": SyncGroup, "group": SyncGroup, "always": SyncAlways, "none": SyncNone} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("fsync"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}

// TestBackToBackCheckpoints: a checkpoint with no write since the previous
// one finds the active segment still empty; rotating must keep it rather
// than try to create a second segment under the same first LSN (which used
// to fail and leave the log without an open file).
func TestBackToBackCheckpoints(t *testing.T) {
	dir := t.TempDir()
	m, _ := openT(t, dir, Options{Sync: SyncNone})
	rel := relation.FromTuples("e", 2, [][]int64{{1, 2}})
	rels := []*relation.Overlay{relation.NewOverlay(rel)}
	appendCommit(t, m, OpDeltas, 0)
	for i := 0; i < 3; i++ {
		if err := m.Checkpoint(1, rels); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	appendCommit(t, m, OpDeltas, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, rec := openT(t, dir, Options{})
	defer m2.Close()
	if rec.SnapshotLSN != 1 || rec.LastLSN != 2 || len(rec.Records) != 1 {
		t.Fatalf("recovered snapshot LSN %d, last LSN %d, %d records; want 1, 2, 1", rec.SnapshotLSN, rec.LastLSN, len(rec.Records))
	}
}
