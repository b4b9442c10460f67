package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// walk enumerates the full trie depth-first, recording every (depth, key)
// visit in order.
func walk(c Cursor, arity int) [][2]int64 {
	var out [][2]int64
	var rec func(depth int)
	rec = func(depth int) {
		c.Open()
		for !c.AtEnd() {
			out = append(out, [2]int64{int64(depth), c.Key()})
			if depth+1 < arity {
				rec(depth + 1)
			}
			c.Next()
		}
		c.Up()
	}
	rec(0)
	return out
}

func TestCSRCursorMatchesTrieIterator(t *testing.T) {
	for _, tc := range []struct{ arity, n, domain int }{
		{1, 50, 10},
		{2, 200, 12},
		{3, 300, 8},
		{4, 400, 6},
	} {
		r := randomRelation(rand.New(rand.NewSource(int64(tc.arity*1000+tc.n))), tc.arity, tc.n, tc.domain)
		csr := NewCSRTrie(r)
		if csr.Len() != r.Len() || csr.Arity() != r.Arity() || csr.Name() != r.Name() {
			t.Fatalf("CSR header mismatch: %v vs %v", csr, r)
		}
		flat := walk(NewTrieIterator(r), r.Arity())
		got := walk(NewCSRCursor(csr), r.Arity())
		if !reflect.DeepEqual(flat, got) {
			t.Errorf("arity %d: CSR walk differs from flat walk (flat %d visits, csr %d)", tc.arity, len(flat), len(got))
		}
	}
}

// walkWithSeeks descends the trie performing a SeekGE at every level before
// iterating, exercising the galloping path against the binary-search path.
func walkWithSeeks(c Cursor, arity int, seeks []int64) [][2]int64 {
	var out [][2]int64
	var rec func(depth int)
	rec = func(depth int) {
		c.Open()
		c.SeekGE(seeks[depth])
		for !c.AtEnd() {
			out = append(out, [2]int64{int64(depth), c.Key()})
			if depth+1 < arity {
				rec(depth + 1)
			}
			c.Next()
			// Interleave forward seeks mid-level too.
			if !c.AtEnd() {
				c.SeekGE(c.Key() + seeks[depth]%3)
			}
		}
		c.Up()
	}
	rec(0)
	return out
}

func TestCSRSeekGEMatchesFlat(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(7)), 3, 500, 20)
	csr := NewCSRTrie(r)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		seeks := []int64{int64(rng.Intn(22)), int64(rng.Intn(22)), int64(rng.Intn(22))}
		flat := walkWithSeeks(NewTrieIterator(r), 3, seeks)
		got := walkWithSeeks(NewCSRCursor(csr), 3, seeks)
		if !reflect.DeepEqual(flat, got) {
			t.Fatalf("seek walk %v: CSR differs from flat", seeks)
		}
	}
	// Backward seeks are no-ops on both backends.
	fc, cc := NewTrieIterator(r), NewCSRCursor(csr)
	fc.Open()
	cc.Open()
	fc.SeekGE(10)
	cc.SeekGE(10)
	fk, ck := fc.Key(), cc.Key()
	fc.SeekGE(0)
	cc.SeekGE(0)
	if fc.Key() != fk || cc.Key() != ck {
		t.Error("backward SeekGE moved a cursor")
	}
}

func TestCSRProbeGapMatchesFlat(t *testing.T) {
	for _, arity := range []int{1, 2, 3} {
		r := randomRelation(rand.New(rand.NewSource(int64(40+arity))), arity, 300, 9)
		csr := NewCSRTrie(r)
		rng := rand.New(rand.NewSource(int64(arity)))
		point := make([]int64, arity)
		for trial := 0; trial < 2000; trial++ {
			for k := range point {
				point[k] = int64(rng.Intn(11)) // domain+2: probes off both ends
			}
			fg, ffound := r.ProbeGap(point)
			cg, cfound := csr.ProbeGap(point)
			if ffound != cfound || fg != cg {
				t.Fatalf("arity %d point %v: flat (%v, %v) vs csr (%v, %v)", arity, point, fg, ffound, cg, cfound)
			}
		}
	}
}

// TestProbeGapInfBoundaries pins the NegInf/PosInf gap endpoints at the
// domain edges on both backends: a probe below every stored value must
// report Lo = NegInf, one above every stored value Hi = PosInf, and an empty
// relation the full (NegInf, PosInf) box at column 0.
func TestProbeGapInfBoundaries(t *testing.T) {
	r := FromTuples("R", 2, [][]int64{{5, 10}, {5, 20}, {8, 1}})
	csr := NewCSRTrie(r)
	probes := []struct {
		point   []int64
		wantGap Gap
	}{
		// Below the least first-column value: no lower neighbor.
		{[]int64{2, 0}, Gap{Col: 0, Lo: NegInf, Hi: 5}},
		// Above the greatest first-column value: no upper neighbor.
		{[]int64{9, 0}, Gap{Col: 0, Lo: 8, Hi: PosInf}},
		// Present prefix, second column below its least child.
		{[]int64{5, 3}, Gap{Col: 1, Lo: NegInf, Hi: 10}},
		// Present prefix, second column above its greatest child.
		{[]int64{5, 30}, Gap{Col: 1, Lo: 20, Hi: PosInf}},
		// Present prefix, second column strictly between children.
		{[]int64{5, 15}, Gap{Col: 1, Lo: 10, Hi: 20}},
		// First column between stored values.
		{[]int64{6, 0}, Gap{Col: 0, Lo: 5, Hi: 8}},
	}
	for _, tc := range probes {
		for name, idx := range map[string]interface {
			ProbeGap([]int64) (Gap, bool)
		}{"flat": r, "csr": csr} {
			gap, found := idx.ProbeGap(tc.point)
			if found {
				t.Errorf("%s: probe %v unexpectedly found", name, tc.point)
				continue
			}
			if gap != tc.wantGap {
				t.Errorf("%s: probe %v gap = %+v, want %+v", name, tc.point, gap, tc.wantGap)
			}
		}
	}
	// Present tuples are found on both backends.
	for _, tuple := range [][]int64{{5, 10}, {5, 20}, {8, 1}} {
		if _, found := r.ProbeGap(tuple); !found {
			t.Errorf("flat: present tuple %v not found", tuple)
		}
		if _, found := csr.ProbeGap(tuple); !found {
			t.Errorf("csr: present tuple %v not found", tuple)
		}
	}

	empty := FromTuples("E", 2, nil)
	emptyCSR := NewCSRTrie(empty)
	want := Gap{Col: 0, Lo: NegInf, Hi: PosInf}
	if gap, found := empty.ProbeGap([]int64{1, 1}); found || gap != want {
		t.Errorf("flat empty: gap = %+v found=%v", gap, found)
	}
	if gap, found := emptyCSR.ProbeGap([]int64{1, 1}); found || gap != want {
		t.Errorf("csr empty: gap = %+v found=%v", gap, found)
	}
}

func TestCSREmptyAndSingleton(t *testing.T) {
	empty := NewCSRTrie(FromTuples("E", 3, nil))
	c := NewCSRCursor(empty)
	c.Open()
	if !c.AtEnd() {
		t.Error("empty trie level 0 not at end")
	}
	c.Up()

	single := NewCSRTrie(FromTuples("S", 2, [][]int64{{3, 4}}))
	if got := walk(NewCSRCursor(single), 2); !reflect.DeepEqual(got, [][2]int64{{0, 3}, {1, 4}}) {
		t.Errorf("singleton walk = %v", got)
	}
	if nodes := len(single.levels[0].vals) + len(single.levels[1].vals); nodes != 2 {
		t.Errorf("singleton has %d nodes, want 2", nodes)
	}
}

// TestCSRTrieBuiltAtFinalSize: the build counts each level's nodes before it
// allocates, so no array carries append-growth slack into the built trie, and
// a level holds two arrays, its keys and its parents' child offsets: 8 bytes
// per node plus 4 per parent and one.
func TestCSRTrieBuiltAtFinalSize(t *testing.T) {
	for _, arity := range []int{1, 2, 3, 4} {
		r := randomRelation(rand.New(rand.NewSource(int64(70+arity))), arity, 500, 7)
		trie := NewCSRTrie(r)
		parents := 1
		for d, lvl := range trie.levels {
			if want := r.DistinctPrefixes(d + 1); len(lvl.vals) != want {
				t.Fatalf("arity %d level %d: %d nodes, want %d distinct prefixes", arity, d, len(lvl.vals), want)
			}
			if len(lvl.start) != parents+1 {
				t.Fatalf("arity %d level %d: start has %d entries for %d parents", arity, d, len(lvl.start), parents)
			}
			if lvl.start[0] != 0 || int(lvl.start[parents]) != len(lvl.vals) {
				t.Errorf("arity %d level %d: offsets do not span the level", arity, d)
			}
			v := reflect.ValueOf(lvl)
			bytes := 0
			for f := 0; f < v.NumField(); f++ {
				arr := v.Field(f)
				if arr.Len() != arr.Cap() {
					t.Errorf("arity %d level %d: slack left on %s (%d/%d)", arity, d, v.Type().Field(f).Name, arr.Len(), arr.Cap())
				}
				bytes += arr.Cap() * int(arr.Type().Elem().Size())
			}
			if want := 8*len(lvl.vals) + 4*(parents+1); v.NumField() != 2 || bytes != want {
				t.Errorf("arity %d level %d: %d arrays of %d bytes, want 2 of %d", arity, d, v.NumField(), bytes, want)
			}
			parents = len(lvl.vals)
		}
	}
}

// TestCSRSpansMatchFlat checks, at every node of tries of arity 1–4, that the
// spans derived from the child offsets — CSRCursor.Span, CSRTrie.span and
// firstRow — count and place the flat rows that extend the node's key path.
func TestCSRSpansMatchFlat(t *testing.T) {
	for _, arity := range []int{1, 2, 3, 4} {
		r := randomRelation(rand.New(rand.NewSource(int64(80+arity))), arity, 300, 6)
		trie := NewCSRTrie(r)
		c := NewCSRCursor(trie)
		prefix := make([]int64, 0, arity)
		var rec func(d int)
		rec = func(d int) {
			c.Open()
			for ; !c.AtEnd(); c.Next() {
				prefix = append(prefix, c.Key())
				first, rows := -1, 0
				for i := 0; i < r.Len(); i++ {
					match := true
					for k, v := range prefix {
						match = match && r.Value(i, k) == v
					}
					if match {
						if first < 0 {
							first = i
						}
						rows++
					}
				}
				pos := c.lv[d].pos
				if c.Span() != int32(rows) || trie.span(d, pos) != int32(rows) || trie.firstRow(d, pos) != int32(first) {
					t.Fatalf("arity %d node %v: Span %d, span %d, firstRow %d; want %d rows from row %d",
						arity, prefix, c.Span(), trie.span(d, pos), trie.firstRow(d, pos), rows, first)
				}
				if d+1 < arity {
					rec(d + 1)
				}
				prefix = prefix[:d]
			}
			c.Up()
		}
		rec(0)
		if end := int32(len(trie.levels[0].vals)); trie.firstRow(0, end) != int32(r.Len()) {
			t.Errorf("arity %d: firstRow past the last node = %d, want %d", arity, trie.firstRow(0, end), r.Len())
		}
	}
}

// TestLeafRangeMatchesFlat checks Overlay.LeafRange against the flat rows on
// random prefixes, present and absent, with one finger shared by the range
// lookups and by gap probes in between (the way Minesweeper uses it).
func TestLeafRangeMatchesFlat(t *testing.T) {
	for _, arity := range []int{1, 2, 3} {
		r := randomRelation(rand.New(rand.NewSource(int64(60+arity))), arity, 300, 9)
		o := NewOverlay(r)
		rng := rand.New(rand.NewSource(int64(arity)))
		var f ProbeFinger
		point := make([]int64, arity)
		for trial := 0; trial < 2000; trial++ {
			for k := range point {
				point[k] = int64(rng.Intn(11)) // domain+2: probes off both ends
			}
			if trial%2 == 0 {
				g, found := o.ProbeGapFinger(point, &f)
				if wg, wfound := r.ProbeGap(point); g != wg || found != wfound {
					t.Fatalf("arity %d point %v: fingered probe (%v, %v), flat (%v, %v)", arity, point, g, found, wg, wfound)
				}
			}
			prefix := point[:arity-1]
			var want []int64
			for i := 0; i < r.Len(); i++ {
				match := true
				for k, v := range prefix {
					match = match && r.Value(i, k) == v
				}
				if match {
					want = append(want, r.Value(i, arity-1))
				}
			}
			if got := o.LeafRange(prefix, &f); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("arity %d prefix %v: LeafRange %v, want %v", arity, prefix, got, want)
			}
		}
	}
	live := NewOverlay(FromTuples("R", 2, [][]int64{{1, 2}})).Apply([][]int64{{1, 3}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("LeafRange over a live log did not panic")
		}
	}()
	live.LeafRange([]int64{1}, new(ProbeFinger))
}

// TestLowerBound64MatchesSortSearch checks the branch-free bisection, and
// GallopGE over it, against sort.Search on random sorted keys that include
// the int64 extremes and the storage sentinels, over windows [lo, hi) that
// are often empty or inverted.
func TestLowerBound64MatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, NegInf, -1, 0, 1, PosInf, math.MaxInt64 - 1, math.MaxInt64}
	for trial := 0; trial < 3000; trial++ {
		vals := make([]int64, rng.Intn(40))
		for i := range vals {
			vals[i] = int64(rng.Intn(50)) - 25
			if rng.Intn(3) == 0 {
				vals[i] = edges[rng.Intn(len(edges))]
			}
		}
		slices.Sort(vals)
		n := len(vals)
		for _, v := range append(slices.Clone(edges), int64(rng.Intn(50))-25) {
			lo, hi := int32(rng.Intn(n+1)), int32(rng.Intn(n+1))
			want := lo
			if lo < hi {
				want += int32(sort.Search(int(hi-lo), func(i int) bool { return vals[int(lo)+i] >= v }))
			}
			if got := lowerBound64(vals, lo, hi, v); got != want {
				t.Fatalf("lowerBound64(%v, %d, %d, %d) = %d, want %d", vals, lo, hi, v, got, want)
			}
			if got := GallopGE(vals, lo, hi, v); got != want {
				t.Fatalf("GallopGE(%v, %d, %d, %d) = %d, want %d", vals, lo, hi, v, got, want)
			}
		}
	}
}

// TestIntersectCount checks the k-way galloping count against a brute-force
// count on random sorted lists of skewed lengths.
func TestIntersectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if n := IntersectCount(nil); n != 0 {
		t.Errorf("IntersectCount(nil) = %d, want 0", n)
	}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(5)
		domain := 1 + rng.Intn(60)
		lists := make([][]int64, k)
		seen := map[int64]int{}
		for i := range lists {
			size := rng.Intn(domain + 1)
			if rng.Intn(4) == 0 {
				size = min(size, rng.Intn(3))
			}
			for _, v := range rng.Perm(domain)[:size] {
				lists[i] = append(lists[i], int64(v))
			}
			sort.Slice(lists[i], func(a, b int) bool { return lists[i][a] < lists[i][b] })
			for _, v := range lists[i] {
				seen[v]++
			}
		}
		var want int64
		for _, c := range seen {
			if c == k {
				want++
			}
		}
		in := fmt.Sprint(lists)
		if got := IntersectCount(lists); got != want {
			t.Fatalf("IntersectCount(%s) = %d, want %d", in, got, want)
		}
	}
}

// TestRootRankMatchesSearch checks every search the rank directory answers
// against the search it replaces, on the same first level: RankDir.SeekGE
// and CSRCursor.SeekGE against GallopGE from positions before, at and after
// the answer; countIn against a trie without a directory; ProbeGap, with a
// finger and without, against that trie; and the merged probe of an overlay
// with a live log against its flat contents. The roots are dense and
// sparse, a single key, keys on both sides of 64-bit word boundaries, and
// keys at the top of the domain, probed below the first key, past the last
// and at the int64 extremes.
func TestRootRankMatchesSearch(t *testing.T) {
	span := func(lo, hi, step int64) (keys []int64) {
		for k := lo; k <= hi; k += step {
			keys = append(keys, k)
		}
		return keys
	}
	for _, tc := range []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"every id", span(0, 199, 1), true},
		{"every other id", span(5, 405, 2), true},
		{"word boundaries", []int64{0, 62, 63, 64, 65, 127, 128, 129}, true},
		{"word boundaries past min", []int64{1000, 1063, 1064, 1065}, true},
		{"one word per key", span(0, 256, 64), true},
		{"top of the domain", []int64{PosInf - 130, PosInf - 65, PosInf - 64, PosInf - 63, PosInf - 2, PosInf - 1}, true},
		{"one key", []int64{7}, true},
		{"sparse", []int64{0, 1000}, false},
		{"just too sparse", []int64{0, 64, 128, 192, 320}, false},
	} {
		var tuples [][]int64
		for _, k := range tc.keys {
			for c := int64(0); c <= (k&3)%3; c++ {
				tuples = append(tuples, []int64{k, c})
			}
		}
		r := FromTuples("R", 2, tuples)
		trie, ref := NewCSRTrie(r), newCSRTrie(r)
		if (trie.root != nil) != tc.dense || ref.root != nil {
			t.Fatalf("%s: directory %v, want %v", tc.name, trie.root != nil, tc.dense)
		}
		vals, n := trie.levels[0].vals, int32(len(tc.keys))
		first, last := tc.keys[0], tc.keys[len(tc.keys)-1]
		probes := append(span(first-3, last+3, 1), math.MinInt64, NegInf, PosInf, math.MaxInt64)
		var finger ProbeFinger
		for _, v := range probes {
			want := lowerBound64(vals, 0, n, v)
			for _, pos := range []int32{0, want - 1, want, want + 1, n} {
				pos = min(max(pos, 0), n)
				gallop := GallopGE(vals, pos, n, v)
				if trie.root != nil {
					if got := trie.root.SeekGE(pos, v); got != gallop {
						t.Fatalf("%s: RankDir.SeekGE(%d, %d) = %d, GallopGE %d", tc.name, pos, v, got, gallop)
					}
				}
				c := NewCSRCursor(trie)
				c.Open()
				c.lv[0].pos = pos
				if c.SeekGE(v); c.lv[0].pos != gallop {
					t.Fatalf("%s: CSRCursor.SeekGE(%d) from %d = %d, GallopGE %d", tc.name, v, pos, c.lv[0].pos, gallop)
				}
			}
			c, rc := NewCSRCursor(trie), NewCSRCursor(ref)
			c.Open()
			rc.Open()
			for _, hi := range []int64{v - 1, v, v + 1, v + 64, first, last + 1, PosInf} {
				if got, want := c.countIn(v, hi), rc.countIn(v, hi); got != want {
					t.Fatalf("%s: countIn(%d, %d) = %d, want %d", tc.name, v, hi, got, want)
				}
			}
			for c := int64(-1); c <= 2; c++ {
				point := []int64{v, c}
				wg, wfound := ref.ProbeGap(point)
				if g, found := trie.ProbeGap(point); g != wg || found != wfound {
					t.Fatalf("%s: ProbeGap(%v) = %v, %v; want %v, %v", tc.name, point, g, found, wg, wfound)
				}
				if g, found := trie.probeGap(point, &finger); g != wg || found != wfound {
					t.Fatalf("%s: fingered ProbeGap(%v) = %v, %v; want %v, %v", tc.name, point, g, found, wg, wfound)
				}
			}
		}
		// A live log: the base side of the merged probe reads the directory.
		ov := NewOverlay(r).Apply([][]int64{{last, 7}}, [][]int64{{first, 0}})
		if ov.LogLen() == 0 {
			t.Fatalf("%s: the overlay compacted its one-tuple log", tc.name)
		}
		flat := ov.Flat()
		for _, v := range probes {
			for c := int64(-1); c <= 2; c++ {
				point := []int64{v, c}
				wg, wfound := flat.ProbeGap(point)
				if g, found := ov.ProbeGap(point); g != wg || found != wfound {
					t.Fatalf("%s: overlay ProbeGap(%v) = %v, %v; want %v, %v", tc.name, point, g, found, wg, wfound)
				}
			}
		}
	}
}
