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
const ProtocolVersion = 7

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
	n := binary.PutUvarint(hdr[5:], reqID)
	payload := 1 + n + len(body)
	if payload > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(payload))
	hdr[4] = typ
	if _, err := w.Write(hdr[:5+n]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
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
