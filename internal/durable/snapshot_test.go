package durable

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/relation"
)

// flatSnapshot is the snapshot file as it was encoded from flat relations
// before checkpoints streamed from overlays: each relation's rows cut into
// chunks by scanning its first column. Snapshots must stay byte-identical to
// it for the same contents.
func flatSnapshot(lsn uint64, rels []*relation.Relation) []byte {
	sorted := append([]*relation.Relation(nil), rels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	var e codec.Enc
	e.U64(lsn)
	e.Int(len(sorted))
	for _, r := range sorted {
		e.Str(r.Name())
		e.Int(r.Arity())
		n := r.Len()
		cuts := []int{0}
		for end := 0; end < n; {
			end += snapChunkRows
			if end >= n {
				end = n
			} else {
				for end < n && r.Value(end, 0) == r.Value(end-1, 0) {
					end++
				}
			}
			cuts = append(cuts, end)
		}
		if n == 0 {
			cuts = append(cuts, 0)
		}
		e.Int(len(cuts) - 1)
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			e.U64(uint64(hi - lo))
			for i := lo; i < hi; i++ {
				e.Tuple(r.Tuple(i))
			}
		}
	}
	return snapFile(e.Bytes())
}

// snapFile is a snapshot file holding body: the header writeSnapshot fills
// in, then body.
func snapFile(body []byte) []byte {
	return append(snapHeader(uint64(len(body)), crc32.ChecksumIEEE(body)), body...)
}

// encodedFile is the snapshot file of rels at lsn, encoded into memory.
func encodedFile(t testing.TB, lsn uint64, rels []*relation.Overlay) []byte {
	var body bytes.Buffer
	n, err := encodeSnapshot(&body, lsn, rels)
	if err != nil || n != int64(body.Len()) {
		t.Fatalf("encodeSnapshot: %d bytes reported, %d written, %v", n, body.Len(), err)
	}
	return snapFile(body.Bytes())
}

// TestSnapshotStreamsFlatBytes: a checkpoint encoded straight from overlays
// is byte-identical to the flat encoding of the same rows — for pristine
// overlays, overlays with live logs and compacted ones, over a relation of
// several chunks whose first-attribute runs cross the 32 K cut (so cuts
// grow past it), an arity-1 and an arity-3 relation and an empty one.
func TestSnapshotStreamsFlatBytes(t *testing.T) {
	var big [][]int64
	run := func(a int64, n int) {
		for b := 0; b < n; b++ {
			big = append(big, []int64{a, int64(b)})
		}
	}
	run(0, snapChunkRows-768) // ends 768 rows short of the first cut
	run(1, 5000)              // crosses it
	for a := int64(2); len(big) < 3*snapChunkRows; a++ {
		run(a, int(1+a%7))
	}
	var wide [][]int64
	for i := int64(0); i < 2*snapChunkRows; i++ {
		wide = append(wide, []int64{i / 3000, i % 17, i})
	}
	unary := make([][]int64, snapChunkRows+5)
	for i := range unary {
		unary[i] = []int64{int64(i)}
	}
	rels := map[string][][]int64{"big": big, "wide": wide, "unary": unary, "empty": nil}
	arity := map[string]int{"big": 2, "wide": 3, "unary": 1, "empty": 2}

	// Each case applies a batch to every relation's overlay and keeps the
	// contents that batch leaves.
	for _, tc := range []struct {
		name  string
		batch func(name string, live [][]int64) (ins, dels [][]int64)
		state func(ov *relation.Overlay) bool
	}{
		{"pristine", func(string, [][]int64) (ins, dels [][]int64) { return nil, nil },
			func(ov *relation.Overlay) bool { return ov.LogLen() == 0 }},
		{"live log", func(name string, live [][]int64) (ins, dels [][]int64) {
			if len(live) == 0 {
				return [][]int64{make([]int64, arity[name])}, nil
			}
			for i := 0; i < 8; i++ {
				tp := append([]int64(nil), live[len(live)*i/8]...)
				dels = append(dels, tp)
				grown := append([]int64(nil), tp...)
				grown[len(grown)-1] += 1 << 40
				ins = append(ins, grown)
			}
			return ins, dels
		}, func(ov *relation.Overlay) bool { return ov.LogLen() > 0 }},
		{"compacted", func(name string, live [][]int64) (ins, dels [][]int64) {
			for i := 0; i < 1<<14; i++ {
				tp := make([]int64, arity[name])
				tp[0] = 1<<20 + int64(i)
				ins = append(ins, tp)
			}
			return ins, live[:len(live)/3]
		}, func(ov *relation.Overlay) bool { return ov.LogLen() == 0 }},
	} {
		var ovs []*relation.Overlay
		var flats []*relation.Relation
		for name, tuples := range rels {
			ins, dels := tc.batch(name, tuples)
			ov := relation.NewOverlay(relation.FromTuples(name, arity[name], tuples)).Apply(ins, dels)
			if !tc.state(ov) {
				t.Fatalf("%s: %s's overlay has a log of %d", tc.name, name, ov.LogLen())
			}
			if name == "big" {
				if chunks := len(chunkCuts(ov)) - 1; chunks < 3 {
					t.Fatalf("%s: big is %d chunks, want several", tc.name, chunks)
				}
			}
			ovs = append(ovs, ov)
			deleted := map[[3]int64]bool{}
			for _, d := range dels {
				deleted[key3(d)] = true
			}
			flats = append(flats, relation.FromTuples(name, arity[name], append(ins, tuples...)).Filter(func(tp []int64) bool {
				return !deleted[key3(tp)]
			}))
		}
		dir := t.TempDir()
		path, err := writeSnapshot(dir, 42, ovs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := flatSnapshot(42, flats); !bytes.Equal(got, want) {
			t.Errorf("%s: the streamed snapshot (%d bytes) differs from the flat encoding (%d bytes)", tc.name, len(got), len(want))
		}
	}
}

// TestSnapshotWriteAllocatesNoBodyCopy: writeSnapshot streams the body to
// the file as it encodes it, so what it allocates stays a few flush buffers
// however large the snapshot is — a checkpoint in flight holds no copy of
// the snapshot it writes.
func TestSnapshotWriteAllocatesNoBodyCopy(t *testing.T) {
	tuples := make([][]int64, 0, 1<<18)
	for i := int64(0); i < 1<<18; i++ {
		tuples = append(tuples, []int64{i / 5, i * 7919 % 1000003})
	}
	ovs := []*relation.Overlay{relation.NewOverlay(relation.FromTuples("e", 2, tuples))}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	path, err := writeSnapshot(dir, 1, ovs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodedFile(t, 1, ovs)) {
		t.Fatal("the streamed snapshot differs from the one encoded in memory")
	}
	if len(got) < 16*snapFlushBytes {
		t.Fatalf("snapshot is %d bytes, want many flush buffers long", len(got))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*snapFlushBytes {
		t.Fatalf("writing a %d-byte snapshot allocated %d bytes, want at most %d", len(got), alloc, 8*snapFlushBytes)
	}
}

// TestRecoveryRejectsOutOfDomainValues: a CRC-valid snapshot or log record
// holding -1 — a reserved sentinel no write path stores — fails Open with an
// error that wraps relation.ErrValueOutOfRange and names the file.
func TestRecoveryRejectsOutOfDomainValues(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		var e codec.Enc
		e.U64(1)
		e.Int(1) // one relation
		e.Str("e")
		e.Int(2)
		e.Int(1) // one chunk of one row
		e.U64(1)
		e.Tuple([]int64{-1, 2})
		body := e.Bytes()
		path := snapPath(dir, 1)
		if err := os.WriteFile(path, snapFile(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir, Options{})
		if !errors.Is(err, relation.ErrValueOutOfRange) || !strings.Contains(fmtErr(err), filepath.Base(path)) {
			t.Fatalf("Open over a snapshot holding -1: %v, want ErrValueOutOfRange naming %s", err, filepath.Base(path))
		}
	})
	bad := [][]int64{{-1, 2}}
	for name, write := range map[string]func(m *Manager) (uint64, error){
		"load":   func(m *Manager) (uint64, error) { return m.AppendLoad("e", bad) },
		"insert": func(m *Manager) (uint64, error) { return m.AppendDeltas([]core.DeltaBatch{{Name: "e", Inserts: bad}}) },
		"delete": func(m *Manager) (uint64, error) { return m.AppendDeltas([]core.DeltaBatch{{Name: "e", Deletes: bad}}) },
	} {
		t.Run("wal "+name, func(t *testing.T) {
			dir := t.TempDir()
			m, _ := openT(t, dir, Options{})
			appendCommit(t, m, OpDefine, 0)
			lsn, err := write(m)
			if err == nil {
				err = m.Commit(lsn)
			}
			if err != nil {
				t.Fatal(err)
			}
			m.Close()
			_, _, err = Open(dir, Options{})
			if seg := filepath.Base(segPath(dir, 1)); !errors.Is(err, relation.ErrValueOutOfRange) || !errors.Is(err, ErrCorruptLog) || !strings.Contains(fmtErr(err), seg) {
				t.Fatalf("Open over a log record holding -1: %v, want ErrCorruptLog and ErrValueOutOfRange naming %s", err, seg)
			}
		})
	}
}

// key3 zero-pads a tuple of arity at most 3 into a map key.
func key3(tp []int64) (k [3]int64) {
	copy(k[:], tp)
	return k
}

func fmtErr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzReadSnapshot: arbitrary bytes decode to relations or to an error,
// never a panic — as they are, and with the header repaired so the body
// decoder sees them past the CRC — and the same bytes read as a relation
// set round-trip through writeSnapshot's encoding.
func FuzzReadSnapshot(f *testing.F) {
	for _, rels := range [][]*relation.Relation{
		nil,
		{relation.FromTuples("e", 2, [][]int64{{1, 2}, {1, 3}, {4, 0}})},
		{relation.FromTuples("u", 1, [][]int64{{7}}), relation.NewBuilder("z", 3).Build()},
	} {
		var ovs []*relation.Overlay
		for _, r := range rels {
			ovs = append(ovs, relation.NewOverlay(r))
		}
		f.Add(encodedFile(f, 3, ovs))
	}
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		if len(data) >= snapHeaderLen {
			checkDecoded(t, snapFile(data[snapHeaderLen:]))
		}

		in := data
		next := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			v := int(in[0]) % n
			in = in[1:]
			return v
		}
		var ovs []*relation.Overlay
		want := map[string][][]int64{}
		for i := next(4); i > 0; i-- {
			name, arity := string(rune('a'+len(ovs))), 1+next(3)
			b := relation.NewBuilder(name, arity)
			for k := next(64); k > 0; k-- {
				tp := make([]int64, arity)
				for c := range tp {
					tp[c] = int64(next(9))
					if tp[c] == 8 {
						tp[c] = relation.PosInf - 1
					}
				}
				b.Add(tp...)
			}
			r := b.Build()
			ovs = append(ovs, relation.NewOverlay(r))
			want[name] = r.Tuples()
		}
		lsn := uint64(next(256)) << 40
		gotLSN, rels, err := decodeSnapshot("fuzz", encodedFile(t, lsn, ovs))
		if err != nil || gotLSN != lsn || len(rels) != len(want) {
			t.Fatalf("round trip: lsn %d, %d relations, %v; want lsn %d, %d relations", gotLSN, len(rels), err, lsn, len(want))
		}
		for _, r := range rels {
			if w := want[r.Name]; !(len(w) == 0 && len(r.Tuples) == 0) && !reflect.DeepEqual(r.Tuples, w) {
				t.Fatalf("round trip: relation %s reads %v, want %v", r.Name, r.Tuples, w)
			}
		}
	})
}

// checkDecoded decodes data as a snapshot file and, when that succeeds,
// checks what it returned is well formed.
func checkDecoded(t *testing.T, data []byte) {
	_, rels, err := decodeSnapshot("fuzz", data)
	if err != nil {
		return
	}
	for _, r := range rels {
		if r.Arity < 1 {
			t.Fatalf("relation %q decoded with arity %d", r.Name, r.Arity)
		}
		for _, tp := range r.Tuples {
			if len(tp) != r.Arity || !relation.InDomain(tp) {
				t.Fatalf("relation %q decoded tuple %v (arity %d)", r.Name, tp, r.Arity)
			}
		}
	}
}
