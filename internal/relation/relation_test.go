package relation

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func buildRel(t *testing.T, arity int, tuples ...[]int64) *Relation {
	t.Helper()
	return FromTuples("R", arity, tuples)
}

func TestBuildSortsAndDedups(t *testing.T) {
	r := buildRel(t, 2, []int64{3, 1}, []int64{1, 2}, []int64{3, 1}, []int64{1, 1}, []int64{2, 9})
	want := [][]int64{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual(r.Tuple(i), w) {
			t.Errorf("Tuple(%d) = %v, want %v", i, r.Tuple(i), w)
		}
	}
}

func TestEmptyRelation(t *testing.T) {
	r := NewBuilder("E", 2).Build()
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	if lo, hi := r.PrefixRange([]int64{1}); lo != hi {
		t.Errorf("PrefixRange on empty relation = [%d,%d), want empty", lo, hi)
	}
	if _, found := r.ProbeGap([]int64{1, 2}); found {
		t.Error("ProbeGap on empty relation reported membership")
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"arity0":    func() { NewBuilder("R", 0) },
		"wrongLen":  func() { NewBuilder("R", 2).Add(1) },
		"negative":  func() { NewBuilder("R", 1).Add(-1) },
		"posInfBig": func() { NewBuilder("R", 1).Add(PosInf + 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestPrefixRangeAndContains(t *testing.T) {
	r := buildRel(t, 3,
		[]int64{5, 1, 4}, []int64{5, 1, 7}, []int64{5, 1, 12},
		[]int64{7, 4, 6}, []int64{7, 9, 8}, []int64{7, 9, 13},
		[]int64{10, 4, 1},
	)
	lo, hi := r.PrefixRange([]int64{5, 1})
	if hi-lo != 3 {
		t.Errorf("PrefixRange(5,1) size = %d, want 3", hi-lo)
	}
	lo, hi = r.PrefixRange([]int64{7})
	if hi-lo != 3 {
		t.Errorf("PrefixRange(7) size = %d, want 3", hi-lo)
	}
	if lo, hi := r.PrefixRange([]int64{6}); lo != hi {
		t.Error("PrefixRange(6) should be empty")
	}
	if !r.Contains([]int64{7, 9, 8}) {
		t.Error("Contains(7,9,8) = false")
	}
	if r.Contains([]int64{7, 9, 9}) {
		t.Error("Contains(7,9,9) = true")
	}
	if r.Contains([]int64{7, 9}) {
		t.Error("Contains with short tuple = true")
	}
}

func TestDistinctPrefixes(t *testing.T) {
	r := buildRel(t, 2, []int64{1, 1}, []int64{1, 2}, []int64{2, 1}, []int64{3, 3})
	if got := r.DistinctPrefixes(1); got != 3 {
		t.Errorf("DistinctPrefixes(1) = %d, want 3", got)
	}
	if got := r.DistinctPrefixes(2); got != 4 {
		t.Errorf("DistinctPrefixes(2) = %d, want 4", got)
	}
	if got := r.DistinctPrefixes(0); got != 1 {
		t.Errorf("DistinctPrefixes(0) = %d, want 1", got)
	}
}

func TestPermute(t *testing.T) {
	r := buildRel(t, 2, []int64{1, 9}, []int64{2, 3}, []int64{2, 7})
	p := r.Permute([]int{1, 0})
	want := [][]int64{{3, 2}, {7, 2}, {9, 1}}
	for i, w := range want {
		if !reflect.DeepEqual(p.Tuple(i), w) {
			t.Errorf("permuted Tuple(%d) = %v, want %v", i, p.Tuple(i), w)
		}
	}
	if r2 := r.Permute([]int{0, 1}); r2 != r {
		t.Error("identity Permute should return the receiver")
	}
}

// TestProbeGapFigure1 walks the paper's running example (Figure 1 and §4.2):
// relation R on (A2, A4, A5).
func TestProbeGapFigure1(t *testing.T) {
	r := buildRel(t, 3,
		[]int64{5, 1, 4}, []int64{5, 1, 7}, []int64{5, 1, 12},
		[]int64{7, 4, 6}, []int64{7, 9, 8}, []int64{7, 9, 13},
		[]int64{10, 4, 1},
	)
	// Free tuple projects to (6,3,7): 6 falls between A2-values 5 and 7 —
	// the paper's constraint <*,*,(5,7),*,*,*,*>.
	gap, found := r.ProbeGap([]int64{6, 3, 7})
	if found {
		t.Fatal("probe (6,3,7) should not be found")
	}
	if gap.Col != 0 || gap.Lo != 5 || gap.Hi != 7 {
		t.Errorf("gap = %+v, want {Col:0 Lo:5 Hi:7}", gap)
	}
	// Projection (7,5,8): A2=7 present, A4=5 falls in band 4 < A4 < 9 —
	// the paper's constraint <*,*,7,*,(4,9),*,*>.
	gap, found = r.ProbeGap([]int64{7, 5, 8})
	if found {
		t.Fatal("probe (7,5,8) should not be found")
	}
	if gap.Col != 1 || gap.Lo != 4 || gap.Hi != 9 {
		t.Errorf("gap = %+v, want {Col:1 Lo:4 Hi:9}", gap)
	}
	// Exact member.
	if _, found := r.ProbeGap([]int64{7, 9, 13}); !found {
		t.Error("probe (7,9,13) should be found")
	}
	// Below the smallest and above the largest value.
	gap, _ = r.ProbeGap([]int64{1, 0, 0})
	if gap.Col != 0 || gap.Lo != NegInf || gap.Hi != 5 {
		t.Errorf("below-min gap = %+v", gap)
	}
	gap, _ = r.ProbeGap([]int64{11, 0, 0})
	if gap.Col != 0 || gap.Lo != 10 || gap.Hi != PosInf {
		t.Errorf("above-max gap = %+v", gap)
	}
	// Last-column gap.
	gap, _ = r.ProbeGap([]int64{5, 1, 8})
	if gap.Col != 2 || gap.Lo != 7 || gap.Hi != 12 {
		t.Errorf("last-column gap = %+v", gap)
	}
}

// randomRelation builds a random relation for property tests.
func randomRelation(rng *rand.Rand, arity, n, domain int) *Relation {
	b := NewBuilder("R", arity)
	tuple := make([]int64, arity)
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = int64(rng.Intn(domain))
		}
		b.Add(tuple...)
	}
	return b.Build()
}

// Property: ProbeGap never reports a gap containing a tuple of the relation,
// and membership answers agree with Contains.
func TestProbeGapSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 1+rng.Intn(3), rng.Intn(40), 8)
		point := make([]int64, r.Arity())
		for trial := 0; trial < 50; trial++ {
			for j := range point {
				point[j] = int64(rng.Intn(10) - 1)
			}
			gap, found := r.ProbeGap(point)
			if found != r.Contains(point) {
				return false
			}
			if found {
				continue
			}
			// Prefix before the gap column must be present; the gap interval
			// must contain the point and no relation value.
			if gap.Lo >= point[gap.Col] || gap.Hi <= point[gap.Col] {
				return false
			}
			lo, hi := r.PrefixRange(point[:gap.Col])
			if gap.Col > 0 && lo == hi {
				return false
			}
			for row := lo; row < hi; row++ {
				v := r.Value(row, gap.Col)
				if v > gap.Lo && v < gap.Hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// collect enumerates the trie depth-first via the iterator interface and
// returns all root-to-leaf tuples.
func collect(it *TrieIterator) [][]int64 {
	var out [][]int64
	var walk func(prefix []int64)
	walk = func(prefix []int64) {
		it.Open()
		for !it.AtEnd() {
			tuple := append(append([]int64(nil), prefix...), it.Key())
			if it.Depth() == it.Relation().Arity() {
				out = append(out, tuple)
			} else {
				walk(tuple)
			}
			it.Next()
		}
		it.Up()
	}
	walk(nil)
	return out
}

func TestTrieIteratorEnumeratesRelation(t *testing.T) {
	r := buildRel(t, 3,
		[]int64{5, 1, 4}, []int64{5, 1, 7}, []int64{5, 1, 12},
		[]int64{7, 4, 6}, []int64{7, 9, 8}, []int64{7, 9, 13},
		[]int64{10, 4, 1},
	)
	got := collect(NewTrieIterator(r))
	if len(got) != r.Len() {
		t.Fatalf("enumerated %d tuples, want %d", len(got), r.Len())
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], r.Tuple(i)) {
			t.Errorf("tuple %d = %v, want %v", i, got[i], r.Tuple(i))
		}
	}
}

// Property: depth-first traversal of the trie iterator reproduces exactly the
// sorted, deduplicated tuple set.
func TestTrieIteratorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 1+rng.Intn(4), rng.Intn(60), 6)
		got := collect(NewTrieIterator(r))
		if len(got) != r.Len() {
			return false
		}
		for i := range got {
			if CompareTuples(got[i], r.Tuple(i)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTrieIteratorSeek(t *testing.T) {
	r := buildRel(t, 1, []int64{1}, []int64{3}, []int64{7}, []int64{9})
	it := NewTrieIterator(r)
	it.Open()
	it.SeekGE(4)
	if it.AtEnd() || it.Key() != 7 {
		t.Fatalf("SeekGE(4) landed at %v", it.Key())
	}
	it.SeekGE(7) // seek to current key: no-op
	if it.Key() != 7 {
		t.Fatalf("SeekGE(7) moved to %v", it.Key())
	}
	it.SeekGE(2) // backward seek: no-op
	if it.Key() != 7 {
		t.Fatalf("backward SeekGE moved to %v", it.Key())
	}
	it.SeekGE(10)
	if !it.AtEnd() {
		t.Error("SeekGE(10) should exhaust the level")
	}
	it.Next() // Next at end: no-op
	if !it.AtEnd() {
		t.Error("Next at end should stay at end")
	}
}

// Property: Seek lands on the least key >= target, matching a reference
// computed from the sorted distinct values.
func TestTrieIteratorSeekProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 1, 1+rng.Intn(50), 30)
		keys := make([]int64, 0, r.Len())
		for i := 0; i < r.Len(); i++ {
			keys = append(keys, r.Value(i, 0))
		}
		for trial := 0; trial < 30; trial++ {
			target := int64(rng.Intn(35) - 2)
			it := NewTrieIterator(r)
			it.Open()
			it.SeekGE(target)
			idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= target })
			if idx == len(keys) {
				if !it.AtEnd() {
					return false
				}
			} else if it.AtEnd() || it.Key() != keys[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompareTuples(t *testing.T) {
	cases := []struct {
		a, b []int64
		want int
	}{
		{[]int64{1, 2}, []int64{1, 2}, 0},
		{[]int64{1, 2}, []int64{1, 3}, -1},
		{[]int64{2, 0}, []int64{1, 9}, 1},
	}
	for _, c := range cases {
		if got := CompareTuples(c.a, c.b); got != c.want {
			t.Errorf("CompareTuples(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTrieIteratorPanics(t *testing.T) {
	r := buildRel(t, 1, []int64{1})
	t.Run("UpAtRoot", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		NewTrieIterator(r).Up()
	})
	t.Run("OpenBelowLeaf", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		it := NewTrieIterator(r)
		it.Open()
		it.Open()
	})
}

// TestMinusMatchesContains: the galloping merge of minus removes exactly
// the tuples Contains finds in b, keeps r's order, and returns r itself
// when nothing is removed — for arities 1 to 3 and for b nil, empty,
// disjoint from r, identical to it, and interleaved with it at random.
func TestMinusMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := func(arity, n int, vals int64) *Relation {
		ts := make([][]int64, n)
		for i := range ts {
			ts[i] = make([]int64, arity)
			for k := range ts[i] {
				ts[i][k] = rng.Int63n(vals)
			}
		}
		return FromTuples("R", arity, ts)
	}
	shifted := func(r *Relation, by int64) *Relation { // disjoint from r
		ts := r.Tuples()
		out := make([][]int64, len(ts))
		for i, tp := range ts {
			out[i] = append([]int64{tp[0] + by}, tp[1:]...)
		}
		return FromTuples("R", r.Arity(), out)
	}
	for arity := 1; arity <= 3; arity++ {
		vals := []int64{0, 40, 8, 5}[arity]
		r := random(arity, 30, vals)
		cases := []struct {
			name string
			b    *Relation
		}{
			{"nil", nil},
			{"empty", FromTuples("R", arity, nil)},
			{"disjoint", shifted(r, 1000)},
			{"identical", r},
			{"single", FromTuples("R", arity, [][]int64{r.Tuple(r.Len() / 2)})},
		}
		for i := 0; i < 20; i++ {
			cases = append(cases, struct {
				name string
				b    *Relation
			}{"interleaved", random(arity, 1+rng.Intn(40), vals)})
		}
		for _, c := range cases {
			var want [][]int64
			for _, tp := range r.Tuples() {
				if c.b == nil || !c.b.Contains(tp) {
					want = append(want, tp)
				}
			}
			got := r.minus(c.b)
			if !reflect.DeepEqual(got.Tuples(), want) && len(want)+got.Len() > 0 {
				t.Errorf("arity %d, %s: minus kept %v, want %v", arity, c.name, got.Tuples(), want)
			}
			if len(want) == r.Len() && got != r {
				t.Errorf("arity %d, %s: nothing removed, but minus did not return r", arity, c.name)
			}
		}
	}
}
