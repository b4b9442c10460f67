package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// durWorkload builds a deterministic sequence of store mutations. Each op
// appends exactly one WAL record on a durable store, so op i (0-based)
// carries LSN i+1 — the mapping the differential tests below rely on to
// replay an oracle to any recovered log position.
func durWorkload(seed int64, batches int) []func(*Store) error {
	rng := rand.New(rand.NewSource(seed))
	edge := func() []int64 { return []int64{rng.Int63n(48), rng.Int63n(48)} }
	ops := []func(*Store) error{
		func(s *Store) error { return s.DefineRelation("e", 2) },
		func(s *Store) error { return s.DefineRelation("label", 2) },
	}
	seedRows := make([][]int64, 40)
	for i := range seedRows {
		seedRows[i] = edge()
	}
	ops = append(ops, func(s *Store) error { return s.Load("e", seedRows) })
	for i := 0; i < batches; i++ {
		b := map[string][]Delta{}
		for j := 0; j < 4+rng.Intn(5); j++ {
			t := edge()
			b["e"] = append(b["e"], Insert(t...))
		}
		for j := 0; j < rng.Intn(4); j++ {
			t := edge()
			b["e"] = append(b["e"], Remove(t...))
		}
		if rng.Intn(2) == 0 {
			t := edge()
			b["label"] = append(b["label"], Insert(t...))
		}
		ops = append(ops, func(s *Store) error { return s.ApplyAll(b) })
	}
	return ops
}

// reloadOps are the writes TestOpenStoreRoundTrip appends to durWorkload: a
// same-arity redefine with a second Load of "e" (one record, since the
// redefine logs nothing), then an ApplyAll over the reloaded relation.
// They stay out of durWorkload, whose log bytes name the crash
// differential's subtests.
func reloadOps(seed int64) []func(*Store) error {
	rng := rand.New(rand.NewSource(seed))
	edge := func() []int64 { return []int64{rng.Int63n(48), rng.Int63n(48)} }
	reload := make([][]int64, 30)
	for i := range reload {
		reload[i] = edge()
	}
	after := map[string][]Delta{
		"e":     {Insert(edge()...), Remove(reload[0]...)},
		"label": {Insert(edge()...)},
	}
	return []func(*Store) error{
		func(s *Store) error {
			if err := s.DefineRelation("e", 2); err != nil {
				return err
			}
			return s.Load("e", reload)
		},
		func(s *Store) error { return s.ApplyAll(after) },
	}
}

// durQueries are the queries the durability tests count on live handles
// and on recovered stores; the reversed order binds e's swapped index.
var durQueries = []struct {
	src string
	gao []string
}{
	{"e(a, b), e(b, c), e(c, a)", nil},
	{"e(a, b), e(b, c), e(c, a)", []string{"c", "b", "a"}},
	{"e(a, b), label(b, c)", []string{"c", "b", "a"}},
}

// durCounts counts every durQueries entry on the handles, preparing them
// on s first when handles is nil, and returns the handles for reuse.
func durCounts(t *testing.T, s *Store, handles []*Prepared) ([]int64, []*Prepared) {
	t.Helper()
	for i := len(handles); i < len(durQueries); i++ {
		q, err := s.ParseQuery("q", durQueries[i].src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Prepare(q, Options{GAO: durQueries[i].gao, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}
	out := make([]int64, len(handles))
	for i, p := range handles {
		n, err := p.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = n
	}
	return out, handles
}

// oracleAt replays the first n workload ops into a fresh in-memory store.
func oracleAt(t *testing.T, ops []func(*Store) error, n uint64) *Store {
	t.Helper()
	s := NewStore()
	for i := uint64(0); i < n; i++ {
		if err := ops[i](s); err != nil {
			t.Fatalf("oracle op %d: %v", i+1, err)
		}
	}
	return s
}

// storeState captures every relation's full sorted contents.
func storeState(t *testing.T, s *Store) map[string][][]int64 {
	t.Helper()
	out := map[string][][]int64{}
	for _, name := range s.Relations() {
		out[name] = relTuples(t, s, name)
	}
	return out
}

func diffStates(got, want map[string][][]int64) string {
	names := map[string]bool{}
	for n := range got {
		names[n] = true
	}
	for n := range want {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		g, gok := got[n]
		w, wok := want[n]
		if gok != wok {
			return fmt.Sprintf("relation %q: present got=%v want=%v", n, gok, wok)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("relation %q: %d tuples, want %d", n, len(g), len(w))
		}
		for i := range g {
			for k := range g[i] {
				if g[i][k] != w[i][k] {
					return fmt.Sprintf("relation %q tuple %d: %v, want %v", n, i, g[i], w[i])
				}
			}
		}
	}
	return ""
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestOpenStoreRoundTrip pins the basic durability contract: a closed store
// reopens to exactly the state its writes built, every atomic batch costs one
// LSN, and a checkpoint makes the next open replay-free.
func TestOpenStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := append(durWorkload(11, 20), reloadOps(13)...)
	st, info, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastLSN != 0 || info.SnapshotLSN != 0 {
		t.Fatalf("fresh dir recovered lsn=%d snap=%d, want 0/0", info.LastLSN, info.SnapshotLSN)
	}
	var handles []*Prepared
	for i, op := range ops {
		if err := op(st); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
		// One op — even a multi-relation ApplyAll — is exactly one record.
		if got := st.LastLSN(); got != uint64(i+1) {
			t.Fatalf("after op %d: LastLSN = %d, want %d", i+1, got, i+1)
		}
		if i == 2 { // both relations defined and e loaded: bind the handles
			_, handles = durCounts(t, st, nil)
		}
	}
	want := storeState(t, st)
	// The handles prepared before the workload's second Load of e follow it.
	wantCounts, _ := durCounts(t, st, handles)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, info2, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	if info2.TailErr != nil {
		t.Fatalf("clean close reopened with tail error: %v", info2.TailErr)
	}
	if info2.LastLSN != uint64(len(ops)) || info2.Replayed != len(ops) {
		t.Fatalf("reopen lsn=%d replayed=%d, want %d/%d", info2.LastLSN, info2.Replayed, len(ops), len(ops))
	}
	if d := diffStates(storeState(t, st2), want); d != "" {
		t.Fatalf("reopened state: %s", d)
	}
	if got, _ := durCounts(t, st2, nil); !slices.Equal(got, wantCounts) {
		t.Fatalf("reopened counts %v, the live handles counted %v", got, wantCounts)
	}
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, info3, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if info3.SnapshotLSN != uint64(len(ops)) || info3.Replayed != 0 {
		t.Fatalf("post-checkpoint open snap=%d replayed=%d, want %d/0", info3.SnapshotLSN, info3.Replayed, len(ops))
	}
	if d := diffStates(storeState(t, st3), want); d != "" {
		t.Fatalf("post-checkpoint state: %s", d)
	}
}

// crashDifferential is the crash-point recovery suite: build a durable store
// from a deterministic workload, then repeatedly truncate or bit-flip the
// newest log segment at random byte offsets, reopen, and require the
// recovered corpus to equal an in-memory oracle replayed to exactly the
// recovered LSN. A second clean reopen must then report no tail damage —
// recovery repaired the file it tolerated.
func crashDifferential(t *testing.T, withCheckpoint bool) {
	const batches = 24
	ops := durWorkload(29, batches)
	srcDir := t.TempDir()
	st, _, err := OpenStore(srcDir, DurabilityOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	cpLSN := uint64(0)
	for i, op := range ops {
		if err := op(st); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
		if withCheckpoint && i == len(ops)/2 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			cpLSN = st.LastLSN()
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	seg := newestSegment(t, srcDir)
	segData, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(segData))

	rng := rand.New(rand.NewSource(31))
	type trial struct {
		mode string // "truncate" or "flip"
		off  int64
	}
	trials := []trial{
		{"truncate", 0}, {"truncate", 1}, {"truncate", size - 1}, {"truncate", size},
		{"flip", 0}, {"flip", 3}, {"flip", size - 1},
	}
	for i := 0; i < 20; i++ {
		trials = append(trials, trial{"truncate", rng.Int63n(size + 1)})
		trials = append(trials, trial{"flip", rng.Int63n(size)})
	}

	for _, tr := range trials {
		t.Run(fmt.Sprintf("%s@%d", tr.mode, tr.off), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, srcDir, dir)
			target := filepath.Join(dir, filepath.Base(seg))
			if tr.mode == "truncate" {
				if err := os.Truncate(target, tr.off); err != nil {
					t.Fatal(err)
				}
			} else {
				data := append([]byte(nil), segData...)
				data[tr.off] ^= 0x40
				if err := os.WriteFile(target, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			rec, info, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
			if err != nil {
				t.Fatalf("open after %s at %d: %v", tr.mode, tr.off, err)
			}
			if info.LastLSN > uint64(len(ops)) {
				t.Fatalf("recovered LSN %d beyond workload %d", info.LastLSN, len(ops))
			}
			if info.LastLSN < cpLSN {
				t.Fatalf("recovered LSN %d behind checkpoint %d", info.LastLSN, cpLSN)
			}
			oracle := oracleAt(t, ops, info.LastLSN)
			if d := diffStates(storeState(t, rec), storeState(t, oracle)); d != "" {
				t.Fatalf("after %s at %d (LSN %d): %s", tr.mode, tr.off, info.LastLSN, d)
			}
			// Query-level cross-check, when the schema survived far enough.
			if info.LastLSN >= 3 {
				ctx := context.Background()
				q, err := rec.ParseQuery("tri", "e(a, b), e(b, c), e(c, a)")
				if err != nil {
					t.Fatal(err)
				}
				got, err := rec.Count(ctx, q, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				oq, err := oracle.ParseQuery("tri", "e(a, b), e(b, c), e(c, a)")
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Count(ctx, oq, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("triangle count %d, want %d", got, want)
				}
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery truncated the damage away; a second open is clean and
			// lands on the same LSN.
			rec2, info2, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			defer rec2.Close()
			if info2.TailErr != nil {
				t.Fatalf("second open still torn: %v", info2.TailErr)
			}
			if info2.LastLSN != info.LastLSN {
				t.Fatalf("second open LSN %d, want %d", info2.LastLSN, info.LastLSN)
			}
		})
	}
}

func TestCrashPointDifferential(t *testing.T)           { crashDifferential(t, false) }
func TestCrashPointDifferentialCheckpoint(t *testing.T) { crashDifferential(t, true) }

// TestDurableWriteSurvivesCrash pins the acknowledgment contract directly:
// a write acknowledged under Sync "always" is on disk even if the process
// never closes the store (simulated here by reopening the directory while
// the original store object is simply abandoned).
func TestDurableWriteSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply("e", [][]int64{{1, 2}, {2, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	// No Close: the crash. The fsync already happened before Apply returned.
	st2, info, err := OpenStore(dir, DurabilityOptions{Sync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.LastLSN != 2 {
		t.Fatalf("recovered LSN %d, want 2", info.LastLSN)
	}
	rows := relTuples(t, st2, "e")
	if len(rows) != 2 {
		t.Fatalf("recovered %d rows, want 2", len(rows))
	}
}

// BenchmarkApply compares the incremental write path with and without the
// write-ahead log: realistic batches (hundreds of edges) merged into a store
// already holding ~100k rows. The acceptance bar is the WAL'd path under the
// default group-commit policy staying within 2x of the in-memory path.
func BenchmarkApply(b *testing.B) {
	const (
		baseRows = 100_000
		domain   = 1 << 20
		insPer   = 256
		delPer   = 64
	)
	setup := func(b *testing.B, s *Store) {
		b.Helper()
		rng := rand.New(rand.NewSource(5))
		base := make([][]int64, baseRows)
		for i := range base {
			base[i] = []int64{rng.Int63n(domain), rng.Int63n(domain)}
		}
		if err := s.DefineRelation("e", 2); err != nil {
			b.Fatal(err)
		}
		if err := s.Load("e", base); err != nil {
			b.Fatal(err)
		}
	}
	bench := func(b *testing.B, s *Store) {
		b.Helper()
		setup(b, s)
		rng := rand.New(rand.NewSource(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ins := make([][]int64, insPer)
			for j := range ins {
				ins[j] = []int64{rng.Int63n(domain), rng.Int63n(domain)}
			}
			dels := make([][]int64, delPer)
			for j := range dels {
				dels[j] = []int64{rng.Int63n(domain), rng.Int63n(domain)}
			}
			if err := s.Apply("e", ins, dels); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) {
		bench(b, NewStore())
	})
	b.Run("wal-group", func(b *testing.B) {
		s, _, err := OpenStore(b.TempDir(), DurabilityOptions{Sync: "group"})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		bench(b, s)
	})
	b.Run("wal-none", func(b *testing.B) {
		s, _, err := OpenStore(b.TempDir(), DurabilityOptions{Sync: "none"})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		bench(b, s)
	})
}

// TestCheckpointBytesTrigger pins the size-triggered checkpoint: once writes
// push the un-pruned log past DurabilityOptions.CheckpointBytes, a background
// checkpoint must fire on its own — writing a snapshot and pruning the log
// back under the budget — with no Checkpoint call from the application, and
// recovery after it must replay only the records past the snapshot.
func TestCheckpointBytesTrigger(t *testing.T) {
	dir := t.TempDir()
	const budget = 16 << 10
	st, _, err := OpenStore(dir, DurabilityOptions{Sync: "none", CheckpointBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	// Each batch appends one multi-kilobyte record; enough of them are
	// guaranteed to cross the budget no matter how the trigger interleaves.
	next := int64(0)
	writeBatch := func() {
		ins := make([][]int64, 128)
		for j := range ins {
			ins[j] = []int64{next % 997, next % 1013}
			next++
		}
		if err := st.Apply("e", ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		writeBatch()
	}

	snapCount := func() int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snap-") {
				n++
			}
		}
		return n
	}
	// The checkpoint runs in the background; give it a bounded window to
	// land. Success = a snapshot exists and the log is pruned back under
	// the budget.
	deadline := time.Now().Add(10 * time.Second)
	for snapCount() == 0 || st.dur.UnprunedBytes() > budget {
		if time.Now().After(deadline) {
			t.Fatalf("no size-triggered checkpoint: %d snapshots, %d un-pruned bytes (budget %d)",
				snapCount(), st.dur.UnprunedBytes(), budget)
		}
		time.Sleep(10 * time.Millisecond)
	}

	want := storeState(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, info, err := OpenStore(dir, DurabilityOptions{Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.SnapshotLSN == 0 {
		t.Fatal("recovery found no snapshot after the size-triggered checkpoint")
	}
	if uint64(info.Replayed) != info.LastLSN-info.SnapshotLSN {
		t.Fatalf("replayed %d records, want exactly the %d past the snapshot",
			info.Replayed, info.LastLSN-info.SnapshotLSN)
	}
	if d := diffStates(storeState(t, st2), want); d != "" {
		t.Fatalf("recovered state after size-triggered checkpoint: %s", d)
	}
}

// TestCloseJoinsBackgroundCheckpoint pins Close against the size-triggered
// checkpoint: with a one-byte budget every acknowledged Apply leaves a
// background checkpoint starting or running, so Close lands in the middle of
// one. When Close returns, that checkpoint must be over — nothing of the
// closed store may still snapshot or prune under whoever opens the directory
// next — and the next OpenStore must recover exactly the acknowledged writes.
func TestCloseJoinsBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: "none", CheckpointBytes: 1}
	next := int64(0) // tuples acknowledged so far, all distinct
	stacks := make([]byte, 1<<20)
	for round := 0; round < 6; round++ {
		st, _, err := OpenStore(dir, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			if err := st.DefineRelation("e", 2); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(storeState(t, st)["e"]); got != int(next) {
			t.Fatalf("round %d: recovered %d tuples, %d were acknowledged", round, got, next)
		}
		for i := 0; i < 3; i++ {
			ins := make([][]int64, 2048)
			for j := range ins {
				ins[j] = []int64{next, next % 1013}
				next++
			}
			if err := st.Apply("e", ins, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		inFlight := func() bool {
			st.ckptMu.Lock()
			defer st.ckptMu.Unlock()
			return st.ckptBusy
		}
		if inFlight() {
			t.Fatalf("round %d: a background checkpoint is in flight after Close", round)
		}
		if all := stacks[:runtime.Stack(stacks, true)]; bytes.Contains(all, []byte("repro.(*Store).Checkpoint")) {
			t.Fatalf("round %d: a goroutine is still checkpointing after Close:\n%s", round, all)
		}
		if st.maybeCheckpoint(); inFlight() {
			t.Fatalf("round %d: a background checkpoint started after Close", round)
		}
	}
	st, _, err := OpenStore(dir, DurabilityOptions{Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := len(storeState(t, st)["e"]); got != int(next) {
		t.Fatalf("final open: recovered %d tuples, %d were acknowledged", got, next)
	}
}

// TestCheckpointBytesDisabled pins the default: without CheckpointBytes the
// same write volume leaves the log un-checkpointed.
func TestCheckpointBytesDisabled(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir, DurabilityOptions{Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.DefineRelation("e", 2); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		ins := make([][]int64, 128)
		for j := range ins {
			ins[j] = []int64{(i*128 + int64(j)) % 997, i % 1013}
		}
		if err := st.Apply("e", ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			t.Fatalf("spontaneous checkpoint without CheckpointBytes: %s", e.Name())
		}
	}
	if st.dur.UnprunedBytes() < 16<<10 {
		t.Fatalf("write volume too small to have crossed the budget: %d bytes", st.dur.UnprunedBytes())
	}
}

// TestChurnUnderTinyCheckpointsRecovers drives the O(batch) write path and
// the capture-then-merge checkpointer against each other: a churn long
// enough to compact the overlays several times runs with a checkpoint budget
// of a few records, so background checkpoints keep capturing overlay
// snapshots mid-churn. The live store, the store recovered after Close, and
// the store recovered from every kill-point in the last log segment (a
// record appended — wholly or in part — whose apply the crash pre-empted)
// must each equal the in-memory oracle replayed to the same log position.
func TestChurnUnderTinyCheckpointsRecovers(t *testing.T) {
	ops := durWorkload(53, 160)
	srcDir := t.TempDir()
	st, _, err := OpenStore(srcDir, DurabilityOptions{Sync: "none", CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if err := op(st); err != nil {
			t.Fatalf("op %d: %v", i+1, err)
		}
	}
	want := storeState(t, oracleAt(t, ops, uint64(len(ops))))
	if d := diffStates(storeState(t, st), want); d != "" {
		t.Fatalf("live state after the churn: %s", d)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(srcDir, "snap-*.snap")); len(snaps) == 0 {
		t.Fatal("no background checkpoint landed during the churn")
	}

	seg := newestSegment(t, srcDir)
	segData, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	offsets := []int64{int64(len(segData))} // the clean reopen
	for i := 0; i < 12 && len(segData) > 0; i++ {
		offsets = append(offsets, rng.Int63n(int64(len(segData))))
	}
	for _, off := range offsets {
		dir := t.TempDir()
		copyDir(t, srcDir, dir)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(seg)), off); err != nil {
			t.Fatal(err)
		}
		rec, info, err := OpenStore(dir, DurabilityOptions{Sync: "none"})
		if err != nil {
			t.Fatalf("open with the last segment cut at %d: %v", off, err)
		}
		if off == int64(len(segData)) && info.LastLSN != uint64(len(ops)) {
			t.Errorf("clean reopen reached LSN %d, want %d", info.LastLSN, len(ops))
		}
		oracle := storeState(t, oracleAt(t, ops, info.LastLSN))
		if d := diffStates(storeState(t, rec), oracle); d != "" {
			t.Errorf("last segment cut at %d (LSN %d): %s", off, info.LastLSN, d)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentWritersReadersCheckpoints (run it under -race): two writers
// churn one relation of a durable store while one goroutine reads the flat
// view and another loops Checkpoint and validates what Checkpoint captures
// (DB.Snapshot merged outside the locks). Writer w's k-th batch inserts
// (w, 8k..8k+7) and deletes batch k-2, so a state is legal iff, per writer,
// it holds exactly the last two batches of some prefix of that writer's
// stream. Every flat view must be legal and never go backwards, and after
// Close the directory — whichever checkpoint it last took, plus the log
// behind it — must recover the final state.
func TestConcurrentWritersReadersCheckpoints(t *testing.T) {
	const writers, batches, width = 2, 400, 8
	dir := t.TempDir()
	st, _, err := OpenStore(dir, DurabilityOptions{Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DefineRelation("r", 2); err != nil {
		t.Fatal(err)
	}
	q, err := st.ParseQuery("both_orders", "r(a, b), r(c, b)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Prepare(q, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	batch := func(w, k int) [][]int64 {
		if k < 0 {
			return nil
		}
		out := make([][]int64, width)
		for i := range out {
			out[i] = []int64{int64(w), int64(k*width + i)}
		}
		return out
	}
	// prefixOf validates one observed state and returns how many batches of
	// each writer it reflects.
	prefixOf := func(tuples [][]int64) (seen [writers]int, err error) {
		var got [writers][]int64
		for _, tp := range tuples {
			got[tp[0]] = append(got[tp[0]], tp[1])
		}
		for w, vals := range got {
			if len(vals) == 0 {
				continue
			}
			k := int(vals[len(vals)-1]) / width // newest batch present
			lo := max(k-1, 0) * width
			if len(vals) != (k+1)*width-lo {
				return seen, fmt.Errorf("writer %d: %d tuples ending in batch %d: a torn batch", w, len(vals), k)
			}
			for i, v := range vals {
				if v != int64(lo+i) {
					return seen, fmt.Errorf("writer %d: tuple %d is %d, want %d", w, i, v, lo+i)
				}
			}
			seen[w] = k + 1
		}
		return seen, nil
	}

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(2)
	go func() { // the flat-view reader
		defer side.Done()
		var last [writers]int
		for {
			r, err := st.DB().Relation("r")
			if err != nil {
				t.Error(err)
				return
			}
			seen, err := prefixOf(r.Tuples())
			if err != nil {
				t.Error(err)
				return
			}
			for w := range seen {
				if seen[w] < last[w] {
					t.Errorf("writer %d went back from %d batches to %d", w, last[w], seen[w])
					return
				}
			}
			last = seen
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	checkpoints := 0
	go func() { // the checkpointer
		defer side.Done()
		for {
			if err := st.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			checkpoints++
			// What a checkpoint captures ("r" is the only relation),
			// merged outside the locks the way Checkpoint merges it.
			if _, err := prefixOf(st.DB().Snapshot()[0].Flat().Tuples()); err != nil {
				t.Errorf("captured snapshot: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var ws sync.WaitGroup
	for w := 0; w < writers; w++ {
		ws.Add(1)
		go func(w int) {
			defer ws.Done()
			for k := 0; k < batches; k++ {
				if err := st.Apply("r", batch(w, k), batch(w, k-2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ws.Wait()
	close(stop)
	side.Wait()
	if checkpoints == 0 {
		t.Error("no checkpoint completed")
	}
	final := relTuples(t, st, "r")
	if seen, err := prefixOf(final); err != nil || seen != [writers]int{batches, batches} {
		t.Errorf("final state reflects %v batches (err %v), want all %d of each writer", seen, err, batches)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := OpenStore(dir, DurabilityOptions{Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if d := diffStates(map[string][][]int64{"r": relTuples(t, rec, "r")}, map[string][][]int64{"r": final}); d != "" {
		t.Errorf("recovered after concurrent checkpoints: %s", d)
	}
}
