package client_test

import (
	"context"
	"errors"
	"net"
	"slices"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/wire"
)

// TestMalformedRowChunk scripts a peer that answers a Rows request with one
// valid chunk and then one truncated chunk. The client must emit exactly the
// valid chunk's rows — a chunk is decoded whole before any of its rows is
// emitted — and then fail the stream and the connection with ErrProtocol.
func TestMalformedRowChunk(t *testing.T) {
	ctx := context.Background()
	cl, sv := net.Pipe()
	valid := [][]int64{{1, 2, 3}, {4, 5, 6}}
	var good, bad wire.Enc
	good.Tuples(valid)
	bad.Int(2)
	bad.Tuple([]int64{7, 8, 9})
	bad.Int(3)
	bad.I64(10) // the second row ends two values short
	peer := make(chan error, 1)
	go func() {
		defer sv.Close()
		reply := func(want, typ byte, body []byte) error {
			got, id, _, err := wire.ReadFrame(sv)
			if err != nil {
				return err
			}
			if got != want {
				return errors.New("unexpected request frame")
			}
			return wire.WriteFrame(sv, typ, id, body)
		}
		var hello, prepared wire.Enc
		hello.U64(wire.ProtocolVersion)
		prepared.U64(1)
		prepared.Str(string(repro.LFTJ))
		if err := reply(wire.THello, wire.THelloOK, hello.Bytes()); err != nil {
			peer <- err
			return
		}
		if err := reply(wire.TPrepare, wire.TPrepareOK, prepared.Bytes()); err != nil {
			peer <- err
			return
		}
		if err := reply(wire.TRows, wire.TRowChunk, good.Bytes()); err != nil {
			peer <- err
			return
		}
		_, id, _, _ := wire.ReadFrame(sv) // the credit for the valid chunk
		peer <- wire.WriteFrame(sv, wire.TRowChunk, id, bad.Bytes())
		for { // drain until the client hangs up
			if _, _, _, err := wire.ReadFrame(sv); err != nil {
				return
			}
		}
	}()
	s, err := client.New(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.Prepare(repro.Triangles(), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	err = p.Enumerate(ctx, func(row []int64) bool {
		got = append(got, slices.Clone(row))
		return true
	})
	if !errors.Is(err, client.ErrProtocol) {
		t.Fatalf("Enumerate over a truncated chunk: %v, want ErrProtocol", err)
	}
	if !slices.EqualFunc(got, valid, slices.Equal) {
		t.Fatalf("emitted %v, want exactly the valid chunk's %v", got, valid)
	}
	if err := <-peer; err != nil {
		t.Fatalf("scripted peer: %v", err)
	}
}
