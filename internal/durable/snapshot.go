package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/codec"
	"repro/internal/relation"
)

// A snapshot file snap-<lsn>.snap holds every relation's sorted base rows as
// of log position lsn:
//
//	magic    8 bytes
//	uint64   body length (big-endian)
//	uint32   CRC-32 (IEEE) of the body
//	body     uvarint lsn, relation count, then per relation: name, arity,
//	         chunk count, and row chunks (wire varint tuple lists)
//
// Rows are split into chunks of roughly snapChunkRows tuples, with each cut
// grown forward to the next first-attribute boundary, so a chunk holds whole
// first-level subtrees of the trie and is a self-contained unit a later
// out-of-core index can page independently.
// Snapshots are written to a temp file, fsynced, and renamed into place, so
// a crash mid-checkpoint leaves at most a stale *.tmp file and never a
// half-written snapshot under the live name.

// snapChunkRows is the target rows per snapshot chunk.
const snapChunkRows = 32 << 10

// snapFlushBytes is how much encoded body a checkpoint holds before writing
// it to the file: its whole buffer, however large the snapshot, so a
// checkpoint in flight holds no more heap than this beside the overlays.
// At 8 KiB that buffer no longer shows in a sampled live heap, and the
// extra writes cost nothing measurable beside the checkpoint's fsync.
const snapFlushBytes = 8 << 10

// snapHeaderLen is the size of a snapshot file's header: the magic, the
// body's length and its CRC.
const snapHeaderLen = len(snapMagic) + 12

// SnapRelation is one relation restored from a snapshot.
type SnapRelation struct {
	Name   string
	Arity  int
	Tuples [][]int64
}

// writeSnapshot durably writes the contents of rels as the snapshot at lsn
// and returns its final path. The body streams to the file as it is encoded,
// after a reserved header that is filled in once its length and CRC are
// known.
func writeSnapshot(dir string, lsn uint64, rels []*relation.Overlay) (string, error) {
	final := snapPath(dir, lsn)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	crc := crc32.NewIEEE()
	var n int64
	_, err = f.Write(make([]byte, snapHeaderLen))
	if err == nil {
		n, err = encodeSnapshot(io.MultiWriter(f, crc), lsn, rels)
	}
	if err == nil {
		_, err = f.WriteAt(snapHeader(uint64(n), crc.Sum32()), 0)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(dir)
	return final, nil
}

// encodeSnapshot writes the body of the snapshot of rels at lsn to w and
// returns its length. Rows are encoded straight from each overlay's row walk
// (Overlay.Rows), so no flat copy of a relation is made, and reach w in
// pieces of about snapFlushBytes.
func encodeSnapshot(w io.Writer, lsn uint64, rels []*relation.Overlay) (n int64, err error) {
	sorted := append([]*relation.Overlay(nil), rels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })

	var e codec.Enc
	flush := func() {
		if err == nil {
			var k int
			k, err = w.Write(e.Bytes())
			n += int64(k)
		}
		e.Reset()
	}
	e.U64(lsn)
	e.Int(len(sorted))
	for _, r := range sorted {
		e.Str(r.Name())
		e.Int(r.Arity())
		cuts := chunkCuts(r)
		e.Int(len(cuts) - 1)
		i, c := 0, 0
		r.Rows(func(row []int64) bool {
			if i == cuts[c] {
				e.U64(uint64(cuts[c+1] - i))
				c++
			}
			e.Tuple(row)
			i++
			if len(e.Bytes()) >= snapFlushBytes {
				flush()
			}
			return err == nil
		})
		if c == 0 { // an empty relation is one empty chunk
			e.U64(0)
		}
	}
	flush()
	return n, err
}

// snapHeader returns the file header of a snapshot whose body is n bytes
// with CRC-32 crc.
func snapHeader(n uint64, crc uint32) []byte {
	hdr := make([]byte, snapHeaderLen)
	copy(hdr, snapMagic)
	binary.BigEndian.PutUint64(hdr[len(snapMagic):], n)
	binary.BigEndian.PutUint32(hdr[len(snapMagic)+8:], crc)
	return hdr
}

// chunkCuts returns row-index boundaries [0, ..., Len] splitting r into
// chunks of about snapChunkRows rows: a chunk ends at the first
// first-attribute boundary at or past snapChunkRows rows, so no key's row
// group straddles two chunks. It reads the first-attribute run lengths
// (Overlay.Runs), not the rows.
func chunkCuts(r *relation.Overlay) []int {
	cuts := []int{0}
	due, i := snapChunkRows, 0 // the row a cut is due at, the row at hand
	r.Runs(func(_ int64, rows int) bool {
		if i >= due {
			cuts = append(cuts, i)
			due = i + snapChunkRows
		}
		i += rows
		return true
	})
	return append(cuts, i)
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (lsn uint64, rels []SnapRelation, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return decodeSnapshot(filepath.Base(path), data)
}

// decodeSnapshot validates and decodes the bytes of the snapshot file named
// base. A tuple outside the storage domain fails it with an error wrapping
// relation.ErrValueOutOfRange: no write path stores one, so the file is
// refused rather than loaded.
func decodeSnapshot(base string, data []byte) (lsn uint64, rels []SnapRelation, err error) {
	hdrLen := snapHeaderLen
	if len(data) < hdrLen || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("%s: bad snapshot header", base)
	}
	bodyLen := binary.BigEndian.Uint64(data[len(snapMagic):])
	if bodyLen != uint64(len(data)-hdrLen) {
		return 0, nil, fmt.Errorf("%s: snapshot body is %d bytes, header says %d", base, len(data)-hdrLen, bodyLen)
	}
	body := data[hdrLen:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(snapMagic)+8:]) {
		return 0, nil, fmt.Errorf("%s: snapshot CRC mismatch", base)
	}

	d := codec.NewDec(body)
	lsn = d.U64()
	nRels := d.Count()
	rels = make([]SnapRelation, 0, nRels)
	for i := 0; i < nRels; i++ {
		name := d.Str()
		arity := d.Int()
		nChunks := d.Count()
		var tuples [][]int64
		for c := 0; c < nChunks; c++ {
			tuples = append(tuples, d.Tuples()...)
		}
		if d.Err() != nil {
			break
		}
		if arity < 1 {
			return 0, nil, fmt.Errorf("%s: relation %q has arity %d", base, name, arity)
		}
		for _, t := range tuples {
			if len(t) != arity {
				return 0, nil, fmt.Errorf("%s: relation %q tuple width %d != arity %d", base, name, len(t), arity)
			}
			if !relation.InDomain(t) {
				return 0, nil, fmt.Errorf("%s: relation %q tuple %v: %w", base, name, t, relation.ErrValueOutOfRange)
			}
		}
		rels = append(rels, SnapRelation{Name: name, Arity: arity, Tuples: tuples})
	}
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", base, err)
	}
	return lsn, rels, nil
}
