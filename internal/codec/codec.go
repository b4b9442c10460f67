// Package codec holds the varint payload codecs shared by the wire protocol
// (internal/wire re-exports them as wire.Enc/wire.Dec) and the durability
// layer's log and snapshot records (internal/durable). Factoring them below
// both keeps the on-disk and on-the-wire encodings byte-identical — a tuple
// batch is laid out the same in a WAL record as in an Apply frame — without
// dragging the protocol's typed-error table (which references the public
// repro package) into the storage layer.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated reports a payload that ended before its fields did.
var ErrTruncated = errors.New("wire: truncated payload")

// Enc appends varint-encoded fields to a payload buffer. The zero value is
// ready to use.
type Enc struct{ b []byte }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// Reset empties the payload but keeps its buffer for the next one.
func (e *Enc) Reset() { e.b = e.b[:0] }

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends an int as an unsigned varint. Every protocol int field is a
// count or size where negative means "unset", so negatives clamp to 0
// rather than varint-wrapping into a huge value the peer would reject.
func (e *Enc) Int(v int) {
	if v < 0 {
		v = 0
	}
	e.U64(uint64(v))
}

// I64 appends a signed varint (zig-zag); tuple values carry user input that
// may be negative, which the server rejects with its own typed error.
func (e *Enc) I64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Raw appends pre-encoded bytes verbatim (no length prefix) — used to
// prepend a header ahead of an already-encoded body.
func (e *Enc) Raw(b []byte) { e.b = append(e.b, b...) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// StrList appends a count-prefixed list of strings.
func (e *Enc) StrList(ss []string) {
	e.U64(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// Tuple appends a width-prefixed tuple of signed values.
func (e *Enc) Tuple(t []int64) {
	e.U64(uint64(len(t)))
	for _, v := range t {
		e.I64(v)
	}
}

// Tuples appends a count-prefixed list of tuples.
func (e *Enc) Tuples(ts [][]int64) {
	e.U64(uint64(len(ts)))
	for _, t := range ts {
		e.Tuple(t)
	}
}

// Dec consumes varint-encoded fields from a payload. Decoding errors are
// sticky: after the first failure every accessor returns a zero value and
// Err reports the failure, so message decoders read all fields and check
// once.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over the payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding failure, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the undecoded remainder of the payload — used to split a
// header off a body that a later decoder consumes.
func (d *Dec) Rest() []byte { return d.b }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// Fail records a decoder-external validation failure (e.g. an unknown flag
// value), making it sticky like any decoding error.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// U64 consumes an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int consumes an unsigned varint as an int, failing on overflow.
func (d *Dec) Int() int {
	v := d.U64()
	if d.err == nil && v > uint64(int(^uint(0)>>1)) {
		d.err = fmt.Errorf("wire: integer field %d overflows int", v)
		return 0
	}
	return int(v)
}

// I64 consumes a signed varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bool consumes one byte as a boolean.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail()
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

// Str consumes a length-prefixed string. The length is validated against the
// remaining payload before allocating.
func (d *Dec) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Count validates a collection count against the bytes that remain: each
// element needs at least one byte, so any count beyond len(d.b) is corrupt
// and must not size an allocation.
func (d *Dec) Count() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

// StrList consumes a count-prefixed list of strings.
func (d *Dec) StrList() []string {
	n := d.Count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Tuple consumes a width-prefixed tuple.
func (d *Dec) Tuple() []int64 {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Tuples consumes a count-prefixed list of tuples.
func (d *Dec) Tuples() [][]int64 {
	n := d.Count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([][]int64, n)
	for i := range out {
		out[i] = d.Tuple()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// TuplesFlat consumes what Tuples does, accepting exactly the same payloads,
// into caller-owned buffers it reuses: the values go back to back in vals
// and each row's end offset in ends, so row i is vals[ends[i-1]:ends[i]].
// Both are sized once, from the count and the first row's width, capped by
// the bytes left — a hostile count cannot size an allocation. On a decoding
// failure both come back empty.
func (d *Dec) TuplesFlat(vals []int64, ends []int) ([]int64, []int) {
	n := d.Count()
	vals, ends = vals[:0], slices.Grow(ends[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		w := d.Count()
		if i == 0 {
			vals = slices.Grow(vals, min(n*w, len(d.b)))
		}
		for j := 0; j < w; j++ {
			vals = append(vals, d.I64())
		}
		ends = append(ends, len(vals))
	}
	if d.err != nil {
		return vals[:0], ends[:0]
	}
	return vals, ends
}
