package relation

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortEdges are the values a row sort must order right beside the small
// ones: the bottom of the domain and the values just under PosInf, whose
// high bytes differ from every small value's.
var sortEdges = []int64{0, 1, 255, 256, 1 << 32, PosInf - 256, PosInf - 2, PosInf - 1}

// randomRows returns n rows of the given arity drawn from a domain of
// domain small values and sortEdges, so rows repeat and columns tie.
func randomRows(rng *rand.Rand, arity, n, domain int) []int64 {
	rows := make([]int64, n*arity)
	for i := range rows {
		if rng.Intn(4) == 0 {
			rows[i] = sortEdges[rng.Intn(len(sortEdges))]
		} else {
			rows[i] = int64(rng.Intn(domain))
		}
	}
	return rows
}

// compareSorted sorts a copy of rows with the comparison sort, the
// reference every radix path is held to.
func compareSorted(rows []int64, arity int) []int64 {
	out := slices.Clone(rows)
	sort.Sort(&rowSorter{rows: out, arity: arity, tmp: make([]int64, arity)})
	return out
}

// checkRadix holds the radix paths to the comparison sort on one row set:
// radixOrder over the identity columns and over a rotation of them (as
// Permute uses it), and sortRows, which picks its path by row count.
func checkRadix(t *testing.T, rows []int64, arity int) {
	t.Helper()
	want := compareSorted(rows, arity)
	ident := identityCols(arity)
	if got := gatherRows(rows, arity, ident, radixOrder(rows, arity, ident)); !slices.Equal(got, want) {
		t.Fatalf("arity %d, %d rows: radix sort differs from the comparison sort", arity, len(rows)/arity)
	}
	if got := sortRows(slices.Clone(rows), arity); !slices.Equal(got, want) {
		t.Fatalf("arity %d, %d rows: sortRows differs from the comparison sort", arity, len(rows)/arity)
	}
	rot := make([]int, arity)
	for k := range rot {
		rot[k] = (k + 1) % arity
	}
	permuted := gatherRows(rows, arity, rot, radixOrder(rows, arity, ident))
	if got := gatherRows(rows, arity, rot, radixOrder(rows, arity, rot)); !slices.Equal(got, compareSorted(permuted, arity)) {
		t.Fatalf("arity %d, %d rows: radix sort by permuted columns differs from the comparison sort", arity, len(rows)/arity)
	}
}

// TestRadixSortMatchesComparisonSort runs checkRadix over arities 1–4, row
// counts on both sides of radixMinRows, narrow domains (many duplicates)
// and wide ones, and checks that Build and Permute on either side of the
// threshold give the same relation.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for arity := 1; arity <= 4; arity++ {
		for _, n := range []int{0, 1, 2, 7, radixMinRows - 1, radixMinRows, radixMinRows + 1, 3 * radixMinRows} {
			for _, domain := range []int{1, 3, 1000, 1 << 20} {
				checkRadix(t, randomRows(rng, arity, n, domain), arity)
			}
		}
	}
	// Build and Permute agree across the threshold: the same tuples, once
	// below it and once padded past it with duplicates.
	small := randomRows(rng, 3, radixMinRows-1, 50)
	padded := append(slices.Clone(small), small[:3*8]...)
	for len(padded) < 3*(radixMinRows+10) {
		padded = append(padded, small[:3]...)
	}
	build := func(rows []int64) *Relation {
		b := NewBuilder("r", 3)
		for i := 0; i < len(rows); i += 3 {
			b.Add(rows[i : i+3]...)
		}
		return b.Build()
	}
	a, b := build(small), build(padded)
	if !slices.Equal(a.rows, b.rows) {
		t.Fatal("Build below and above radixMinRows gives different relations")
	}
	for _, perm := range [][]int{{1, 0, 2}, {2, 1, 0}, {1, 2, 0}} {
		got := b.Permute(perm)
		want := compareSorted(gatherRows(b.rows, 3, perm, radixOrder(b.rows, 3, identityCols(3))), 3)
		if !slices.Equal(got.rows, want) || !slices.Equal(a.Permute(perm).rows, want) {
			t.Fatalf("Permute(%v) differs from the comparison sort", perm)
		}
	}
}

// FuzzSortRows holds the radix sort to the comparison sort on rows the
// fuzzer shapes: arity 1–4, a row count up to three times radixMinRows, and
// values from a domain it picks, mixed with 0 and the values just under
// PosInf.
func FuzzSortRows(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 3})
	f.Add([]byte{3, 255, 7, 9, 200, 0})
	f.Add([]byte{1, 2, 2, 64, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		arity := 1 + in.next(4)
		n := in.next(256) * 3 * radixMinRows / 255
		domain := 1 << in.next(63)
		seed := int64(in.next(256))<<8 | int64(in.next(256))
		checkRadix(t, randomRows(rand.New(rand.NewSource(seed)), arity, n, domain), arity)
	})
}
