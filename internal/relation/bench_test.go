package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchRelation(b *testing.B, n int) *Relation {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bl := NewBuilder("R", 2)
	for i := 0; i < n; i++ {
		bl.Add(int64(rng.Intn(n/4+1)), int64(rng.Intn(n/4+1)))
	}
	return bl.Build()
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]int64, 200_000)
	for i := range rows {
		rows[i] = int64(rng.Intn(30_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder("R", 2)
		for j := 0; j < len(rows); j += 2 {
			bl.Add(rows[j], rows[j+1])
		}
		bl.Build()
	}
}

func BenchmarkCSRBuild100k(b *testing.B) {
	r := benchRelation(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCSRTrie(r)
	}
}

// fullScan drives a two-level depth-first walk through either access path's
// cursor (the shapes BenchmarkTrieIteratorFullScan and BenchmarkCSR*FullScan
// compare).
func fullScan(it Cursor) {
	it.Open()
	for !it.AtEnd() {
		it.Open()
		for !it.AtEnd() {
			it.Next()
		}
		it.Up()
		it.Next()
	}
	it.Up()
}

func BenchmarkTrieIteratorFullScan(b *testing.B) {
	r := benchRelation(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullScan(NewTrieIterator(r))
	}
}

func BenchmarkCSRCursorFullScan(b *testing.B) {
	t := NewCSRTrie(benchRelation(b, 100_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullScan(NewCSRCursor(t))
	}
}

func BenchmarkTrieIteratorSeek(b *testing.B) {
	r := benchRelation(b, 100_000)
	rng := rand.New(rand.NewSource(2))
	targets := make([]int64, 1024)
	for i := range targets {
		targets[i] = int64(rng.Intn(30_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewTrieIterator(r)
		it.Open()
		for _, t := range targets {
			it.SeekGE(t % (t + 1)) // forward-only seeks
			if it.AtEnd() {
				break
			}
		}
		it.Up()
	}
}

func BenchmarkProbeGap(b *testing.B) {
	r := benchRelation(b, 100_000)
	rng := rand.New(rand.NewSource(3))
	points := make([][]int64, 1024)
	for i := range points {
		points[i] = []int64{int64(rng.Intn(30_000)), int64(rng.Intn(30_000))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			r.ProbeGap(p)
		}
	}
}

func BenchmarkCSRProbeGap(b *testing.B) {
	t := NewCSRTrie(benchRelation(b, 100_000))
	rng := rand.New(rand.NewSource(3))
	points := make([][]int64, 1024)
	for i := range points {
		points[i] = []int64{int64(rng.Intn(30_000)), int64(rng.Intn(30_000))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			t.ProbeGap(p)
		}
	}
}

// benchOverlay carries ~2% of the base in live logs — the steady state of a
// view between compactions.
func benchOverlay(b *testing.B) *Overlay {
	b.Helper()
	r := benchRelation(b, 100_000)
	ov := NewOverlay(r)
	rng := rand.New(rand.NewSource(9))
	var ins, dels [][]int64
	for i := 0; i < 1000; i++ {
		t := []int64{int64(rng.Intn(30_000)), int64(rng.Intn(30_000))}
		if r.Contains(t) {
			dels = append(dels, t)
		} else {
			ins = append(ins, t)
		}
	}
	ov = ov.Apply(ins, dels)
	if ov.LogLen() == 0 {
		b.Fatal("overlay compacted; benchmark would measure the pristine path")
	}
	return ov
}

func BenchmarkOverlayCursorFullScan(b *testing.B) {
	ov := benchOverlay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullScan(ov.NewCursor())
	}
}

func BenchmarkOverlayProbeGap(b *testing.B) {
	ov := benchOverlay(b)
	rng := rand.New(rand.NewSource(3))
	points := make([][]int64, 1024)
	for i := range points {
		points[i] = []int64{int64(rng.Intn(30_000)), int64(rng.Intn(30_000))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			ov.ProbeGap(p)
		}
	}
}

// BenchmarkOverlayApply measures one single-tuple update landing in the
// logs — the per-batch cost a CSR-backed incremental view pays instead of
// an O(arity·n) trie rebuild.
func BenchmarkOverlayApply(b *testing.B) {
	ov := NewOverlay(benchRelation(b, 100_000))
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := []int64{int64(rng.Intn(30_000)), int64(rng.Intn(30_000))}
		ov.Apply([][]int64{t}, nil)
	}
}

// minusSink keeps BenchmarkMinus's result live.
var minusSink *Relation

// BenchmarkMinus is the set difference the overlay write path takes six
// times per batch, for a 64-tuple batch against a ~1k-tuple log and against
// another 64-tuple batch. "clustered" is the shape of a write batch, every
// tuple under one first key, and of a log built from 16 of them; "uniform"
// scatters both sides over 4096 × 64 keys.
func BenchmarkMinus(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	uniform := func(n int) *Relation {
		ts := make([][]int64, n)
		for i := range ts {
			ts[i] = []int64{int64(rng.Intn(4096)), int64(rng.Intn(64))}
		}
		return FromTuples("e", 2, ts)
	}
	clustered := func(keys int) *Relation {
		var ts [][]int64
		for k := 0; k < keys; k++ {
			v := int64(rng.Intn(4096))
			for i := 0; i < 64; i++ {
				ts = append(ts, []int64{v, int64(rng.Intn(4096))})
			}
		}
		return FromTuples("e", 2, ts)
	}
	for _, c := range []struct {
		shape        string
		batch, other *Relation
	}{
		{"clustered", clustered(1), clustered(16)},
		{"clustered", clustered(1), clustered(1)},
		{"uniform", uniform(64), uniform(1024)},
		{"uniform", uniform(64), uniform(64)},
	} {
		b.Run(fmt.Sprintf("%s/other=%d", c.shape, c.other.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				minusSink = c.batch.minus(c.other)
			}
		})
	}
}
