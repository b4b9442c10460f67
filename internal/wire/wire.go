// Package wire is the frame protocol graphjoind speaks: a compact
// length-prefixed binary framing with varint-encoded payloads, shared by the
// server (repro/server) and the client (repro/client). It is the first
// process boundary in the reproduction — the seam along which stores shard
// across hosts.
//
// Every frame is
//
//	uint32  length (big-endian) of everything that follows — the type
//	        byte, the request id, and the body; excludes the 4 length
//	        bytes themselves
//	uint8   frame type (the T* constants)
//	uvarint request id
//	body    the type-specific fields
//
// The request id multiplexes concurrent requests over one connection: the
// client assigns ids, the server tags every response frame — including each
// chunk of a Rows stream — with the id of the request it answers. Control
// frames (TCredit, TCancel) reference the id of the stream or request they
// steer.
package wire

import (
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/codec"
)

// ProtocolVersion is negotiated in the Hello exchange; the server rejects
// clients whose major version it does not speak. Version 2 extended the
// query payload with predicates and aggregate terms; version 3 extended the
// prepare options with the shard spec the distributed router fans out.
// Version 4 prefixes every dispatched request body with a trace context
// (flag 0 = untraced) and adds the TTrace fetch. Version 5 drops the index
// backend name from the prepare options. Version 6 drops the granularity,
// the ablation flag word and the row cap from them: the options are the
// algorithm, the workers, the GAO and the shard. Version 7 makes the shard
// "part i of n" of the leading attribute, cut from the data by every host.
// Version 8 sends a query without a head with an empty head list, so a
// server chooses its attribute order as a local store would.
const ProtocolVersion = 8

// MaxFrame bounds a frame's payload (64 MiB). Oversized frames indicate a
// corrupt or malicious peer; both ends drop the connection.
const MaxFrame = 64 << 20

// ErrFrameTooLarge reports a frame whose declared payload exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated reports a payload that ended before its fields did.
var ErrTruncated = codec.ErrTruncated

// Frame types. Requests flow client to server; each is answered by the
// response type noted (or TErr). TRowChunk/TRowsEnd stream; TCredit and
// TCancel are one-way control frames.
const (
	// Client → server requests.
	THello         byte = 0x01 // Hello → THelloOK
	TDefine        byte = 0x02 // Define → TOK
	TLoad          byte = 0x03 // Load → TOK
	TApply         byte = 0x04 // Apply → TOK
	TApplyAll      byte = 0x05 // ApplyAll → TOK
	TParse         byte = 0x06 // Parse → TParseOK
	TPrepare       byte = 0x07 // Prepare → TPrepareOK
	TClosePrepared byte = 0x08 // ClosePrepared → TOK
	TCount         byte = 0x09 // Count → TCountOK
	TRows          byte = 0x0a // Rows → TRowChunk* then TRowsEnd
	TBegin         byte = 0x0b // Begin → TBeginOK
	TEnd           byte = 0x0c // End → TOK
	TBatch         byte = 0x0d // Batch → TBatchOK
	TStats         byte = 0x0e // Stats → TStatsOK
	TExplain       byte = 0x0f // Explain → TExplainOK
	TRelations     byte = 0x10 // Relations → TRelationsOK
	TMetrics       byte = 0x11 // Metrics → TMetricsOK
	TTrace         byte = 0x12 // Trace → TTraceOK

	// One-way control frames (client → server).
	TCredit byte = 0x18 // grant Rows flow-control credit to a stream
	TCancel byte = 0x19 // cancel an in-flight request or stream

	// Server → client responses.
	TOK          byte = 0x20
	TErr         byte = 0x21
	THelloOK     byte = 0x22
	TParseOK     byte = 0x23
	TPrepareOK   byte = 0x24
	TCountOK     byte = 0x25
	TRowChunk    byte = 0x26
	TRowsEnd     byte = 0x27
	TBeginOK     byte = 0x28
	TBatchOK     byte = 0x29
	TStatsOK     byte = 0x2a
	TExplainOK   byte = 0x2b
	TRelationsOK byte = 0x2c
	TMetricsOK   byte = 0x2d
	TTraceOK     byte = 0x2e
)

// WriteFrame writes one frame. The caller serializes concurrent writers.
func WriteFrame(w io.Writer, typ byte, reqID uint64, body []byte) error {
	var hdr [5 + binary.MaxVarintLen64]byte
	h, err := appendHeader(hdr[:0], typ, reqID, len(body))
	if err != nil {
		return err
	}
	if _, err := w.Write(h); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err = w.Write(body)
	return err
}

// appendFrame appends one frame to dst, so a connection can send it with a
// single write. An oversized frame returns ErrFrameTooLarge with dst as it
// was.
func appendFrame(dst []byte, typ byte, reqID uint64, body []byte) ([]byte, error) {
	dst, err := appendHeader(dst, typ, reqID, len(body))
	if err != nil {
		return dst, err
	}
	return append(dst, body...), nil
}

// FrameWriter sends each frame on W in one write, assembled in a scratch
// buffer kept between frames; a body over 64 KiB is written after its header
// instead, never copied. The caller serializes concurrent writers.
type FrameWriter struct {
	W   io.Writer
	buf []byte
}

// Write sends one frame. An oversized frame fails with ErrFrameTooLarge
// before any byte is written.
func (f *FrameWriter) Write(typ byte, reqID uint64, body []byte) (err error) {
	if len(body) > 64<<10 {
		return WriteFrame(f.W, typ, reqID, body)
	}
	if f.buf, err = appendFrame(f.buf[:0], typ, reqID, body); err == nil {
		_, err = f.W.Write(f.buf)
	}
	return err
}

// appendHeader appends the length, type and request id of a frame whose body
// is bodyLen bytes long, or returns dst unchanged and ErrFrameTooLarge.
func appendHeader(dst []byte, typ byte, reqID uint64, bodyLen int) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	dst = binary.AppendUvarint(dst, reqID)
	payload := len(dst) - start - 4 + bodyLen
	if payload > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

// ReadFrame reads one frame, rejecting payloads over MaxFrame.
func ReadFrame(r io.Reader) (typ byte, reqID uint64, body []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, 0, nil, ErrFrameTooLarge
	}
	typ = hdr[4]
	payload := make([]byte, n-1)
	if _, err = io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	id, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, nil, ErrTruncated
	}
	return typ, id, payload[k:], nil
}

// Enc appends varint-encoded fields to a payload buffer (internal/codec's
// encoder, re-exported: the durability layer shares the same codecs for its
// log and snapshot records without importing the protocol's error table).
// The zero value is ready to use.
type Enc = codec.Enc

// Dec consumes varint-encoded fields from a payload (internal/codec's
// decoder, re-exported). Decoding errors are sticky: after the first failure
// every accessor returns a zero value and Err reports the failure, so
// message decoders read all fields and check once.
type Dec = codec.Dec

// NewDec returns a decoder over the payload.
func NewDec(b []byte) *Dec { return codec.NewDec(b) }
