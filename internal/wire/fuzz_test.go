package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
)

// frameBytes renders one frame for the seed corpus.
func frameBytes(typ byte, reqID uint64, body []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, reqID, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader. The
// invariants: ReadFrame never panics, every failure is one of the protocol's
// typed errors (or the reader's own io errors), and every successfully read
// frame re-encodes via WriteFrame to something ReadFrame parses back
// identically.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                   // truncated header
	f.Add([]byte{0, 0, 0, 0, THello})        // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}) // declared length over MaxFrame
	f.Add([]byte{0, 0, 0, 2, TCount})        // payload shorter than declared
	f.Add(frameBytes(THello, 0, nil))
	f.Add(frameBytes(TCount, 7, []byte{1, 2, 3}))
	f.Add(frameBytes(TRowChunk, 1<<40, bytes.Repeat([]byte{0xaa}, 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, reqID, body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
				errors.Is(err, ErrFrameTooLarge), errors.Is(err, ErrTruncated):
			default:
				t.Fatalf("ReadFrame: untyped error %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, reqID, body); err != nil {
			t.Fatalf("WriteFrame(%#x, %d, %d bytes) of a parsed frame: %v", typ, reqID, len(body), err)
		}
		typ2, reqID2, body2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read of re-encoded frame: %v", err)
		}
		if typ2 != typ || reqID2 != reqID || !bytes.Equal(body2, body) {
			t.Fatalf("frame round trip: (%#x, %d, %x) != (%#x, %d, %x)", typ2, reqID2, body2, typ, reqID, body)
		}
	})
}

// queryBytes encodes one query payload for the seed corpus.
func queryBytes(t *testing.F, src string) []byte {
	q, err := query.Parse("seed", src)
	if err != nil {
		t.Fatalf("seed %q: %v", src, err)
	}
	var e Enc
	FromQuery(q).Encode(&e)
	return e.Bytes()
}

// FuzzDecodeQuery throws arbitrary payloads at the query decoder and the
// ToQuery re-validation behind it — the path a hostile peer reaches. The
// invariants: no panic, decoding failures are reported through Dec.Err or
// ToQuery's typed errors, and every payload that survives validation
// round-trips losslessly through FromQuery/Encode/DecodeQuery.
func FuzzDecodeQuery(f *testing.F) {
	for _, src := range []string{
		"edge(a, b), edge(b, c)",
		"out(a) :- edge(a, b)",
		"e(137, b), e(b, c), b != 4",
		"deg(a, count(b)) :- edge(a, b), a >= 3",
		"total(sum(b)) :- e(a, b)",
	} {
		f.Add(queryBytes(f, src))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		wq := DecodeQuery(d)
		if d.Err() != nil {
			return
		}
		q, err := wq.ToQuery()
		if err != nil {
			return
		}
		var e Enc
		FromQuery(q).Encode(&e)
		d2 := NewDec(e.Bytes())
		wq2 := DecodeQuery(d2)
		if d2.Err() != nil {
			t.Fatalf("re-decode of valid query %s: %v", q, d2.Err())
		}
		q2, err := wq2.ToQuery()
		if err != nil {
			t.Fatalf("re-validation of valid query %s: %v", q, err)
		}
		if q2.String() != q.String() {
			t.Fatalf("query round trip: %q != %q", q2, q)
		}
	})
}

// FuzzDecodePayloads covers the remaining payload decoders — errors, engine
// options, counter snapshots — behind a one-byte selector. The invariants:
// no decoder panics on arbitrary bytes, and whatever a decoder accepts
// re-encodes and re-decodes to the same value.
func FuzzDecodePayloads(f *testing.F) {
	f.Add([]byte{0})
	f.Add(append([]byte{0}, EncodeErr(repro.ErrUnknownRelation)...))
	f.Add(append([]byte{0}, EncodeErr(&Error{Code: "made-up", Msg: "boom"})...))
	var eo Enc
	EncodeOptions(&eo, repro.Options{Algorithm: repro.MS, Workers: 4, GAO: []string{"a", "b"}, Shard: &repro.Shard{Part: 2, Of: 5}})
	f.Add(append([]byte{1}, eo.Bytes()...))
	var es Enc
	EncodeStats(&es, core.Stats{Executions: 3, Outputs: 99, Seeks: -1})
	f.Add(append([]byte{2}, es.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, body := data[0]%3, data[1:]
		switch sel {
		case 0:
			err := DecodeErr(body)
			if err == nil {
				t.Fatal("DecodeErr returned nil error")
			}
			again := DecodeErr(EncodeErr(err))
			if again == nil || again.Error() != err.Error() {
				t.Fatalf("error round trip: %v != %v", again, err)
			}
		case 1:
			d := NewDec(body)
			o := DecodeOptions(d)
			if d.Err() != nil {
				return
			}
			var e Enc
			EncodeOptions(&e, o)
			o2 := DecodeOptions(NewDec(e.Bytes()))
			if !reflect.DeepEqual(o2, o) {
				t.Fatalf("options round trip: %+v != %+v", o2, o)
			}
		case 2:
			d := NewDec(body)
			s := DecodeStats(d)
			if d.Err() != nil {
				return
			}
			var e Enc
			EncodeStats(&e, s)
			s2 := DecodeStats(NewDec(e.Bytes()))
			if s2 != s {
				t.Fatalf("stats round trip: %+v != %+v", s2, s)
			}
		}
	})
}

// FuzzDecodeOptions runs what a client can put in Options — any bytes the
// options decoder accepts — through Prepare and Count of a triangle query on
// a small fixed store, under a 2 s deadline. The invariants: nothing panics,
// whatever decodes either prepares or fails with a typed error, an unsharded
// count that Prepare accepts equals the count for the same options on one
// worker (no option but the shard changes the answer), and the counts of
// every part of an accepted shard spec of at most 8 parts sum to the
// unsharded count.
func FuzzDecodeOptions(f *testing.F) {
	seed := func(o repro.Options) []byte {
		var e Enc
		EncodeOptions(&e, o)
		return e.Bytes()
	}
	// v5 renders a version-5 payload, which carried a granularity between
	// the workers and the GAO, and an ablation flag word and a row cap after
	// it.
	v5 := func(alg string, workers, granularity int, flags uint64, maxRows int) []byte {
		var e Enc
		e.Str(alg)
		e.Int(workers)
		e.Int(granularity)
		e.StrList([]string{"a", "b", "c"})
		e.U64(flags)
		e.Int(maxRows)
		e.U64(0)
		return e.Bytes()
	}
	f.Add(seed(repro.Options{Workers: 1 << 50}))
	f.Add(seed(repro.Options{Algorithm: repro.MS, Workers: -3}))
	f.Add(v5("", 4, 1<<62, 0, 0))
	f.Add(seed(repro.Options{Algorithm: "nope"}))
	f.Add(v5("graphlab", 1<<50, 0, 0b1101, 1<<20))
	// A version-6 hash shard: kind, range bounds, modulus and residue.
	var v6 Enc
	v6.Str(string(repro.LFTJ))
	v6.Int(2)
	v6.StrList(nil)
	v6.U64(1)
	v6.Str("hash")
	v6.I64(0)
	v6.I64(0)
	v6.U64(3)
	v6.U64(1)
	f.Add(v6.Bytes())
	// A version-4 payload: the index backend name sat between GAO and flags.
	var v4 Enc
	v4.Str(string(repro.LFTJ))
	v4.Int(4)
	v4.Int(0)
	v4.StrList([]string{"a", "b", "c"})
	v4.Str("flat")
	v4.U64(0)
	v4.Int(0)
	v4.U64(0)
	f.Add(v4.Bytes())
	f.Add(seed(repro.Options{Shard: &repro.Shard{Part: 1<<63 - 1, Of: 1 << 63}}))
	f.Add(seed(repro.Options{Shard: &repro.Shard{Part: 3, Of: 3}}))
	f.Add(seed(repro.Options{Shard: &repro.Shard{Of: 0}}))
	st := repro.NewStore()
	if err := dataset.Load(st, dataset.Generate(dataset.HolmeKim, 60, 200, 1), 1, 1); err != nil {
		f.Fatal(err)
	}
	q := repro.Triangles()
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		o := DecodeOptions(d)
		if d.Err() != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		p, err := st.Prepare(q, o)
		if err != nil {
			if ErrorCode(err) == CodeInternal {
				t.Fatalf("options %+v: untyped Prepare error %v", o, err)
			}
			return
		}
		n, err := p.Count(ctx)
		if ctx.Err() != nil {
			return
		}
		if sh := o.Shard; sh != nil {
			if err != nil || sh.Of > 8 {
				return
			}
			whole, sum := o, int64(0)
			whole.Shard = nil
			for i := uint64(0); i < sh.Of; i++ {
				part := o
				part.Shard = &repro.Shard{Part: i, Of: sh.Of}
				pp, err := st.Prepare(q, part)
				if err != nil {
					t.Fatalf("options %+v prepare, but not part %d: %v", o, i, err)
				}
				k, err := pp.Count(ctx)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					t.Fatalf("options %+v part %d: %v", o, i, err)
				}
				sum += k
			}
			pw, err := st.Prepare(q, whole)
			if err != nil {
				t.Fatalf("options %+v prepare sharded, but not whole: %v", o, err)
			}
			nw, err := pw.Count(ctx)
			if ctx.Err() != nil {
				return
			}
			if err != nil || nw != sum {
				t.Fatalf("options %+v: parts sum to %d, whole counts %d (%v)", o, sum, nw, err)
			}
			return
		}
		seq := o
		seq.Workers = 1
		ps, err1 := st.Prepare(q, seq)
		if err1 != nil {
			t.Fatalf("options %+v prepare, but not on one worker: %v", o, err1)
		}
		n1, err1 := ps.Count(ctx)
		if ctx.Err() != nil {
			return
		}
		if (err == nil) != (err1 == nil) || n != n1 {
			t.Fatalf("options %+v count %d (%v), on one worker %d (%v)", o, n, err, n1, err1)
		}
	})
}
