package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/codec"
	"repro/internal/relation"
)

// wantRecord is the record layout written field by field: the body's length
// and CRC-32, then the body — the uvarint LSN, the op byte and the payload.
func wantRecord(lsn uint64, op byte, payload []byte) []byte {
	body := append(binary.AppendUvarint(nil, lsn), op)
	body = append(body, payload...)
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// TestAppendRecordLayout: a record encoded in place behind whatever the
// buffer holds is the documented layout byte for byte, and a segment written
// through the log holds exactly its magic and those records.
func TestAppendRecordLayout(t *testing.T) {
	buf := []byte("prefix")
	want := append([]byte(nil), buf...)
	for i, payload := range [][]byte{nil, {7}, bytes.Repeat([]byte{0xab}, 300)} {
		lsn := uint64(1) << (20 * i)
		buf = appendRecord(buf, lsn, OpLoad, payload)
		want = append(want, wantRecord(lsn, OpLoad, payload)...)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("appendRecord wrote %x, want %x", buf, want)
	}

	dir := t.TempDir()
	m, _ := openT(t, dir, Options{})
	appendCommit(t, m, OpDefine, 0)
	appendCommit(t, m, OpLoad, 1)
	appendCommit(t, m, OpDeltas, 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var e codec.Enc
	e.Str("r0")
	e.Int(2)
	seg := append([]byte(walMagic), wantRecord(1, OpDefine, e.Bytes())...)
	e.Reset()
	e.Str("e")
	e.Tuples([][]int64{{1, 2}})
	seg = append(seg, wantRecord(2, OpLoad, e.Bytes())...)
	e.Reset()
	e.Int(1)
	e.Str("e")
	e.Tuples([][]int64{{2, 0}})
	e.Tuples([][]int64{{0, 2}})
	seg = append(seg, wantRecord(3, OpDeltas, e.Bytes())...)
	if got, err := os.ReadFile(segPath(dir, 1)); err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("segment holds %x (%v), want %x", got, err, seg)
	}
}

// TestAppendBufferBoundedAfterLargeRecord: a bulk load larger than the
// append buffer leaves no buffer past bufSize behind once it is written out.
func TestAppendBufferBoundedAfterLargeRecord(t *testing.T) {
	m, _ := openT(t, t.TempDir(), Options{})
	defer m.Close()
	tuples := make([][]int64, 3*bufSize/8)
	for i := range tuples {
		tuples[i] = []int64{int64(i), int64(i) << 20}
	}
	lsn, err := m.Append(Record{Op: OpLoad, Name: "e", Tuples: tuples})
	if err == nil {
		err = m.Commit(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	m.log.mu.Lock()
	defer m.log.mu.Unlock()
	if c := cap(m.log.buf); c > bufSize {
		t.Fatalf("append buffer keeps %d bytes of capacity after the load, want at most %d", c, bufSize)
	}
}

// FuzzReadRecord: arbitrary bytes, as they are and behind a valid segment
// magic, scan to records and a tail error, never a panic, and every record
// scanned decodes or fails with an error; and records appended through the
// log's encoding, with payloads and ops cut from the bytes, scan back as
// written with no tail error.
func FuzzReadRecord(f *testing.F) {
	var e codec.Enc
	e.Int(1)
	e.Str("e")
	e.Tuples([][]int64{{1, 2}, {3, 4}})
	e.Tuples(nil)
	f.Add(appendRecord(appendRecord([]byte(walMagic), 1, OpDefine, []byte{1, 'e', 2}), 2, OpDeltas, e.Bytes()))
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	path := segPath(f.TempDir(), 1)
	scan := func(t *testing.T, seg []byte) ([]rawRecord, int64, error) {
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		return scanSegment(path)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seg := range [][]byte{data, append([]byte(walMagic), data...)} {
			recs, end, _ := scan(t, seg)
			if end < 0 || end > int64(len(seg)) {
				t.Fatalf("scan ended at %d of %d bytes", end, len(seg))
			}
			for _, r := range recs {
				rec, err := decodeRecord(r)
				if err != nil {
					continue
				}
				ts := [][][]int64{rec.Tuples}
				for _, b := range rec.Batches {
					ts = append(ts, b.Inserts, b.Deletes)
				}
				for _, ts := range ts {
					for _, tp := range ts {
						if !relation.InDomain(tp) {
							t.Fatalf("record %d decoded tuple %v outside the domain", r.lsn, tp)
						}
					}
				}
			}
		}

		buf := []byte(walMagic)
		var want []rawRecord
		for in, lsn := data, uint64(1); len(in) > 0; lsn++ {
			n := min(int(in[0]), len(in)-1)
			op, payload := in[0]%4, in[1:1+n]
			buf = appendRecord(buf, lsn, op, payload)
			want = append(want, rawRecord{lsn: lsn, op: op, body: payload})
			in = in[1+n:]
		}
		recs, end, err := scan(t, buf)
		if err != nil || end != int64(len(buf)) || len(recs) != len(want) {
			t.Fatalf("round trip: %d records to byte %d, %v; want %d records to byte %d", len(recs), end, err, len(want), len(buf))
		}
		for i, r := range recs {
			if w := want[i]; r.lsn != w.lsn || r.op != w.op || !bytes.Equal(r.body, w.body) {
				t.Fatalf("round trip: record %d reads %+v, want %+v", i, r, w)
			}
		}
	})
}
