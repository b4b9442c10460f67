package relation

import (
	"reflect"
	"testing"
)

// fuzzInput reads small bounded numbers off the fuzzer's byte string; an
// exhausted input reads zeros.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := int((*in)[0]) % n
	*in = (*in)[1:]
	return v
}

func (in *fuzzInput) tuple(arity, domain int) []int64 {
	t := make([]int64, arity)
	for k := range t {
		t[k] = int64(in.next(domain))
	}
	return t
}

// FuzzOverlayCursor drives the one overlay cursor through random histories:
// a base of arity 1–3, a sequence of Apply batches (crossing compaction and
// log cancellation, so overlays go dirty and pristine again), and after
// every batch a full walk, a walk with seeks, and gap probes — each checked
// against TrieIterator and Relation.ProbeGap over a flat relation holding
// the same contents, a walk checking every level PureLevel exposes against
// the cursor, and Flat checked against the reference merge (MergeDelta of
// the base trie's rows and the logs) — on pristine, live-log and just
// compacted overlays alike. Every overlay is walked by a fresh cursor and by one
// cursor Reset from overlay to overlay (dirty→pristine, pristine→dirty, and
// first from an overlay of a different arity).
func FuzzOverlayCursor(f *testing.F) {
	f.Add([]byte{1, 20, 3, 4, 5, 6, 7, 8, 2, 10, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 16, 5, 4, 3, 2, 1})
	f.Add([]byte{0, 5, 1, 1, 2, 2, 3, 3, 6, 30, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	// Arity 2 through every overlay state: a live log, cancelled back to
	// pristine, then 20 inserts that compact. pad is what one batch's seeks
	// and probes read.
	seed, pad := []byte{1, 4, 0, 0, 1, 1, 2, 2, 3, 3, 3}, make([]byte, 18)
	seed = append(seed, pad...)
	for range 2 {
		seed = append(append(seed, 2, 5, 5, 5, 4), pad...)
	}
	seed = append(seed, 20)
	for a := byte(0); a < 4; a++ {
		for b := byte(0); b < 6; b++ {
			if a != b {
				seed = append(seed, a, b)
			}
		}
	}
	f.Add(append(seed, pad...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = 6
		in := fuzzInput(data)
		arity := 1 + in.next(3)
		live := map[string][]int64{}
		b := NewBuilder("R", arity)
		for i := in.next(48); i > 0; i-- {
			tp := in.tuple(arity, domain)
			b.Add(tp...)
			live[tupleKey(tp)] = tp
		}
		ov := NewOverlay(b.Build())

		var c OverlayCursor
		other := NewOverlay(FromTuples("S", arity%3+1, [][]int64{make([]int64, arity%3+1)}))
		c.Reset(other)
		walk(&c, other.Arity())

		batches := 1 + in.next(6)
		for batch := 0; batch < batches; batch++ {
			if batch > 0 {
				var ins, dels [][]int64
				touched := map[string]bool{}
				for i := in.next(24); i > 0; i-- {
					tp := in.tuple(arity, domain)
					key := tupleKey(tp)
					if touched[key] {
						continue // keep the sides disjoint (the Apply contract)
					}
					touched[key] = true
					if _, ok := live[key]; ok {
						delete(live, key)
						dels = append(dels, tp)
					} else {
						live[key] = tp
						ins = append(ins, tp)
					}
				}
				before := OverlayCompactions()
				ov = ov.Apply(ins, dels)
				state := "live-log"
				switch {
				case OverlayCompactions() != before:
					state = "compacted"
				case ov.LogLen() == 0:
					state = "pristine"
				}
				base := FromTuples("R", arity, cursorRows(NewCSRCursor(ov.base), arity))
				if got, ref := ov.Flat(), MergeDelta(base, ov.adds, ov.dels); !reflect.DeepEqual(got.Tuples(), ref.Tuples()) {
					t.Fatalf("batch %d (%s): Flat %v, reference merge %v", batch, state, got.Tuples(), ref.Tuples())
				}
			}
			rb := NewBuilder("R", arity)
			for _, tp := range live {
				rb.Add(tp...)
			}
			want := rb.Build()
			if ov.Len() != want.Len() || !reflect.DeepEqual(ov.Flat().Tuples(), want.Tuples()) {
				t.Fatalf("batch %d: overlay holds %d tuples, reference %d", batch, ov.Len(), want.Len())
			}
			flat := walk(NewTrieIterator(want), arity)
			if got := walk(ov.NewCursor(), arity); !reflect.DeepEqual(got, flat) {
				t.Fatalf("batch %d (log %d): fresh cursor walk differs from flat", batch, ov.LogLen())
			}
			c.Reset(ov)
			if got := walk(&c, arity); !reflect.DeepEqual(got, flat) {
				t.Fatalf("batch %d (log %d): re-targeted cursor walk differs from flat", batch, ov.LogLen())
			}
			seeks := make([]int64, arity)
			for k := range seeks {
				seeks[k] = int64(in.next(domain + 2))
			}
			c.Reset(ov)
			if got, want := walkWithSeeks(&c, arity, seeks), walkWithSeeks(NewTrieIterator(want), arity, seeks); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d (log %d): seek walk %v differs from flat", batch, ov.LogLen(), seeks)
			}
			c.Reset(ov)
			checkPureLevels(t, &c, arity, seeks, ov.LogLen() == 0)
			for i := 0; i < 8; i++ {
				point := in.tuple(arity, domain+2)
				fg, ffound := want.ProbeGap(point)
				og, ofound := ov.ProbeGap(point)
				if ffound != ofound || fg != og {
					t.Fatalf("batch %d point %v: flat (%v, %v) vs overlay (%v, %v)", batch, point, fg, ffound, og, ofound)
				}
			}
		}
	})
}

// cursorRows returns every tuple under c, in cursor order.
func cursorRows(c Cursor, arity int) [][]int64 {
	var out [][]int64
	tuple := make([]int64, arity)
	var rec func(depth int)
	rec = func(depth int) {
		c.Open()
		for ; !c.AtEnd(); c.Next() {
			tuple[depth] = c.Key()
			if depth+1 < arity {
				rec(depth + 1)
			} else {
				out = append(out, append([]int64(nil), tuple...))
			}
		}
		c.Up()
	}
	rec(0)
	return out
}

// checkPureLevels walks c through every level, moving by Next and by
// SeekGE in turn, and wherever PureLevel reports ok checks the exposed level
// against the cursor: vals[*pos] is Key, *pos < hi exactly when the level is
// not at its end, the level stays exposed while the cursor walks the levels
// below it, and galloping *pos to a target lands where SeekGE leaves the
// cursor. A pristine overlay must report ok at every level.
func checkPureLevels(t *testing.T, c *OverlayCursor, arity int, seeks []int64, pristine bool) {
	t.Helper()
	level := func(depth int) (vals []int64, pos *int32, hi int32, ok bool) {
		vals, pos, hi, ok = c.PureLevel()
		if pristine && !ok {
			t.Fatalf("depth %d of a pristine overlay is not a pure level", depth)
		}
		if ok && (*pos < hi) == c.AtEnd() {
			t.Fatalf("depth %d: pos %d, hi %d, AtEnd %v", depth, *pos, hi, c.AtEnd())
		}
		if ok && *pos < hi && vals[*pos] != c.Key() {
			t.Fatalf("depth %d: vals[pos] = %d, Key = %d", depth, vals[*pos], c.Key())
		}
		return vals, pos, hi, ok
	}
	var rec func(depth int)
	rec = func(depth int) {
		c.Open()
		for step := 0; ; step++ {
			vals, pos, hi, ok := level(depth)
			if c.AtEnd() {
				break
			}
			if depth+1 < arity {
				rec(depth + 1)
			}
			if _, p, h, still := c.PureLevel(); ok && (!still || p != pos || h != hi) {
				t.Fatalf("depth %d: the exposed level moved while the cursor went below it", depth)
			}
			if step%2 == 0 {
				c.Next()
				continue
			}
			target := c.Key() + 1 + seeks[depth]%3
			var want int32
			if ok {
				want = GallopGE(vals, *pos, hi, target)
			}
			c.SeekGE(target)
			if ok && *pos != want {
				t.Fatalf("depth %d: SeekGE(%d) left pos %d, GallopGE lands at %d", depth, target, *pos, want)
			}
		}
		c.Up()
	}
	rec(0)
	if _, _, _, ok := c.PureLevel(); ok {
		t.Fatal("PureLevel reports a level at the root")
	}
}

// FuzzProbeGapFinger runs probe sequences through one ProbeFinger and checks
// every answer against the finger-less ProbeGap: two random tries of arity
// 1–3, and per step an ascending run on the last column, a backward jump, a
// change at a random prefix level, or a switch to the other trie.
func FuzzProbeGapFinger(f *testing.F) {
	f.Add([]byte{1, 20, 3, 4, 5, 6, 7, 8, 2, 10, 1, 2, 3, 4, 5, 0, 1, 2, 3})
	f.Add([]byte{2, 30, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 16, 5, 4, 3, 2, 1, 3, 3})
	f.Add([]byte{0, 5, 1, 1, 2, 2, 3, 3, 6, 30, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = 8
		in := fuzzInput(data)
		var tries [2]*CSRTrie
		for k := range tries {
			arity := 1 + in.next(3)
			b := NewBuilder("R", arity)
			for i := in.next(64); i > 0; i-- {
				b.Add(in.tuple(arity, domain)...)
			}
			tries[k] = NewCSRTrie(b.Build())
		}
		var finger ProbeFinger
		cur := 0
		point := make([]int64, tries[cur].Arity())
		for step := 0; step < 64 && len(in) > 0; step++ {
			last := len(point) - 1
			switch in.next(4) {
			case 0: // ascending run on the last column
				point[last] += int64(in.next(3))
			case 1: // backward jump
				point[last] -= int64(1 + in.next(domain))
			case 2: // new value at a prefix level, fresh suffix
				d := in.next(len(point))
				point[d] = int64(in.next(domain+2) - 1)
				for k := d + 1; k < len(point); k++ {
					point[k] = int64(in.next(domain+2) - 1)
				}
			case 3: // the other trie
				cur = 1 - cur
				point = in.tuple(tries[cur].Arity(), domain+2)
			}
			wg, wfound := tries[cur].ProbeGap(point)
			g, found := tries[cur].probeGap(point, &finger)
			if g != wg || found != wfound {
				t.Fatalf("step %d trie %d point %v: finger (%v, %v), ProbeGap (%v, %v)", step, cur, point, g, found, wg, wfound)
			}
		}
	})
}
