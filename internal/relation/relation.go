// Package relation implements the storage substrate of the reproduction:
// immutable, lexicographically sorted relations over int64 attribute values,
// with the two access paths the paper's algorithms require — a trie-style
// iterator (open/up/next/seek) for Leapfrog Triejoin and least-upper-bound /
// greatest-lower-bound gap probes for Minesweeper (paper §4.1, Figure 1).
package relation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sentinel values standing in for -inf and +inf on the attribute domain.
// Ordinary attribute values must lie strictly between them.
const (
	NegInf int64 = -1 << 62
	PosInf int64 = 1 << 62
)

// Relation is an immutable, duplicate-free relation whose tuples are stored
// row-major in a single flat slice, sorted lexicographically. This mirrors
// the leaf level of the B-tree/trie indices the paper assumes (§4.1): every
// prefix of the attribute list is searchable by binary search.
type Relation struct {
	name  string
	arity int
	rows  []int64 // len(rows) == n*arity
	n     int
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Tuple returns a read-only view of row i. The returned slice aliases
// internal storage and must not be modified.
func (r *Relation) Tuple(i int) []int64 {
	return r.rows[i*r.arity : (i+1)*r.arity]
}

// Tuples returns every row in order, each a read-only view like Tuple's.
func (r *Relation) Tuples() [][]int64 {
	out := make([][]int64, r.n)
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// Value returns column col of row i.
func (r *Relation) Value(i, col int) int64 { return r.rows[i*r.arity+col] }

func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d tuples]", r.name, r.arity, r.n)
}

// Builder accumulates tuples for a Relation. Tuples may be added in any
// order; Build sorts and deduplicates.
type Builder struct {
	name  string
	arity int
	rows  []int64
}

// NewBuilder returns a Builder for a relation with the given name and arity.
// Arity must be at least 1.
func NewBuilder(name string, arity int) *Builder {
	if arity < 1 {
		panic("relation: arity must be >= 1")
	}
	return &Builder{name: name, arity: arity}
}

// Add appends one tuple. It panics if the tuple length does not match the
// arity or a value is outside [0, PosInf). Attribute values are natural
// numbers, matching the paper's N-valued domains; Minesweeper's truncation
// logic (Algorithm 6) relies on -1 sorting below every stored value.
func (b *Builder) Add(tuple ...int64) {
	if len(tuple) != b.arity {
		panic(fmt.Sprintf("relation %s: Add got %d values, want %d", b.name, len(tuple), b.arity))
	}
	if !InDomain(tuple) {
		panic(fmt.Sprintf("relation %s: tuple %v has a value outside the domain [0, PosInf)", b.name, tuple))
	}
	b.rows = append(b.rows, tuple...)
}

// ErrValueOutOfRange reports a tuple value outside the storage domain
// [0, PosInf): negative values and the top of the int64 range are reserved
// as sentinels.
var ErrValueOutOfRange = errors.New("value outside the storage domain")

// InDomain reports whether every value of the tuple lies in the storage
// domain [0, PosInf).
func InDomain(tuple []int64) bool {
	for _, v := range tuple {
		if v < 0 || v >= PosInf {
			return false
		}
	}
	return true
}

// Build sorts, deduplicates, and returns the immutable Relation. The Builder
// must not be reused afterwards.
func (b *Builder) Build() *Relation {
	r := &Relation{name: b.name, arity: b.arity, rows: sortRows(b.rows, b.arity)}
	r.n = len(b.rows) / b.arity
	r.dedup()
	b.rows = nil
	return r
}

// FromTuples builds a relation directly from a tuple slice.
func FromTuples(name string, arity int, tuples [][]int64) *Relation {
	b := NewBuilder(name, arity)
	for _, t := range tuples {
		b.Add(t...)
	}
	return b.Build()
}

// fromSortedRows wraps an already sorted, deduplicated row-major slice as a
// Relation without copying or re-sorting. The caller must not mutate rows
// afterwards.
func fromSortedRows(name string, arity int, rows []int64) *Relation {
	return &Relation{name: name, arity: arity, rows: rows, n: len(rows) / arity}
}

// mergeDelta returns r ∪ ins \ dels as a new relation by one linear merge
// of the three sorted row sets — no re-sort, so the cost is O(n) copying
// instead of O(n log n). ins must be disjoint from r and dels a subset of r
// (both may be nil). The overlay merges its small logs with it; its contents
// come out of the base trie through Overlay.Rows, the same merge over the
// trie's row walk.
func mergeDelta(r, ins, dels *Relation) *Relation {
	insN, delsN := ins.size(), dels.size()
	if insN == 0 && delsN == 0 {
		return r
	}
	a := r.arity
	out := make([]int64, 0, (r.n+insN-delsN)*a)
	i, j, k := 0, 0, 0 // cursors into r, ins, dels
	for i < r.n || j < insN {
		// Emit the smaller head of r (minus dels) and ins.
		if i == r.n || j < insN && CompareTuples(ins.Tuple(j), r.Tuple(i)) < 0 {
			out = append(out, ins.Tuple(j)...)
			j++
			continue
		}
		t := r.Tuple(i)
		i++
		for k < delsN && CompareTuples(dels.Tuple(k), t) < 0 {
			k++
		}
		if k < delsN && CompareTuples(dels.Tuple(k), t) == 0 {
			k++
			continue
		}
		out = append(out, t...)
	}
	return fromSortedRows(r.name, a, out)
}

// size is Len, reading 0 for a nil relation (an empty overlay log).
func (r *Relation) size() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Filter returns the sub-relation of tuples keep accepts, in order (no
// re-sort). When every tuple is kept it returns r itself and when none is it
// allocates no rows, so splitting an already canonical update batch against
// the overlay logs costs nothing.
func (r *Relation) Filter(keep func(tuple []int64) bool) *Relation {
	i := 0
	for i < r.n && keep(r.Tuple(i)) {
		i++
	}
	if i == r.n {
		return r
	}
	var rows []int64
	if i > 0 {
		rows = make([]int64, i*r.arity, (r.n-1)*r.arity)
		copy(rows, r.rows)
	}
	for i++; i < r.n; i++ {
		if t := r.Tuple(i); keep(t) {
			if rows == nil {
				rows = make([]int64, 0, (r.n-i)*r.arity)
			}
			rows = append(rows, t...)
		}
	}
	return fromSortedRows(r.name, r.arity, rows)
}

// minus returns r \ b (r itself when nothing is removed); b may be nil.
// Both sides are sorted, so one forward walk over b decides every tuple of
// r: a gallop from where the last one stopped to the first tuple >= it.
func (r *Relation) minus(b *Relation) *Relation {
	if b == nil || b.n == 0 {
		return r
	}
	j := 0
	return r.Filter(func(t []int64) bool {
		j = b.gallopRow(j, t)
		return j == b.n || CompareTuples(b.Tuple(j), t) != 0
	})
}

// gallopRow returns the first row index in [from, n) whose tuple is >= t (n
// when none), probing rows 0, 1, 3, 7, … past from before it bisects, as
// GallopGE does over one level.
func (r *Relation) gallopRow(from int, t []int64) int {
	lo, bound, step := from, from, 1
	for bound < r.n && CompareTuples(r.Tuple(bound), t) < 0 {
		lo = bound + 1
		bound += step
		step <<= 1
	}
	for hi := min(bound, r.n); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if CompareTuples(r.Tuple(mid), t) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rowSorter sorts a flat row-major slice lexicographically without
// allocating per-row slices.
type rowSorter struct {
	rows  []int64
	arity int
	tmp   []int64
}

func (s *rowSorter) Len() int { return len(s.rows) / s.arity }

func (s *rowSorter) Less(i, j int) bool {
	a, b := s.rows[i*s.arity:(i+1)*s.arity], s.rows[j*s.arity:(j+1)*s.arity]
	for k := 0; k < s.arity; k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func (s *rowSorter) Swap(i, j int) {
	a, b := s.rows[i*s.arity:(i+1)*s.arity], s.rows[j*s.arity:(j+1)*s.arity]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

// radixMinRows is the row count from which sortRows sorts by radix. Below
// it the comparison sort runs in place and allocates one row of scratch,
// which is what a write batch of a few dozen tuples wants; above it the
// radix sort's linear passes beat n log n row compares.
const radixMinRows = 512

// sortRows sorts a flat row-major slice lexicographically and returns it:
// rows itself, sorted in place, below radixMinRows rows, and a new slice in
// sorted order from there on.
func sortRows(rows []int64, arity int) []int64 {
	if n := len(rows) / arity; n < radixMinRows || n > math.MaxInt32 {
		sort.Sort(&rowSorter{rows: rows, arity: arity, tmp: make([]int64, arity)})
		return rows
	}
	return gatherRows(rows, arity, identityCols(arity), radixOrder(rows, arity, identityCols(arity)))
}

func identityCols(arity int) []int {
	cols := make([]int, arity)
	for k := range cols {
		cols[k] = k
	}
	return cols
}

// radixOrder returns the indexes of the rows in the lexicographic order of
// their columns cols[0], cols[1], …: a stable LSD radix sort of the row
// indexes, one pass per byte, the last column first. A column is swept once
// to count all eight of its byte histograms, and a byte every row shares
// (one bucket holds them all) is skipped, so a column of values below 2^16
// costs two passes. Keys are compared as signed values (the sign bit
// flipped).
func radixOrder(rows []int64, arity int, cols []int) []int32 {
	n := len(rows) / arity
	idx, tmp := make([]int32, n), make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if n == 0 {
		return idx
	}
	var counts [8][256]int32
	for c := len(cols) - 1; c >= 0; c-- {
		col := cols[c]
		counts = [8][256]int32{}
		for i := col; i < len(rows); i += arity {
			k := uint64(rows[i]) ^ 1<<63
			for b := range counts {
				counts[b][byte(k>>(8*b))]++
			}
		}
		for b := range counts {
			count := &counts[b]
			if count[byte((uint64(rows[col])^1<<63)>>(8*b))] == int32(n) {
				continue // every row shares this byte
			}
			sum := int32(0)
			for v, c := range count {
				count[v] = sum
				sum += c
			}
			shift := 8 * b
			for _, r := range idx {
				v := byte((uint64(rows[int(r)*arity+col]) ^ 1<<63) >> shift)
				tmp[count[v]] = r
				count[v]++
			}
			idx, tmp = tmp, idx
		}
	}
	return idx
}

// gatherRows returns a new row-major slice holding rows in the order idx
// gives, each with its columns cols[0], cols[1], … (a permutation of the
// columns).
func gatherRows(rows []int64, arity int, cols []int, idx []int32) []int64 {
	out := make([]int64, len(idx)*arity)
	for i, r := range idx {
		src, dst := rows[int(r)*arity:int(r+1)*arity], out[i*arity:(i+1)*arity]
		for k, c := range cols {
			dst[k] = src[c]
		}
	}
	return out
}

func (r *Relation) dedup() {
	if r.n == 0 {
		return
	}
	w := 1
	for i := 1; i < r.n; i++ {
		if !slices.Equal(r.Tuple(w-1), r.Tuple(i)) {
			if w != i {
				copy(r.rows[w*r.arity:(w+1)*r.arity], r.rows[i*r.arity:(i+1)*r.arity])
			}
			w++
		}
	}
	r.rows = r.rows[:w*r.arity]
	r.n = w
}

// Permute returns a new relation whose columns are reordered so that output
// column k holds input column perm[k], re-sorted lexicographically: from
// radixMinRows rows on, by radix-sorting the row indexes on the permuted
// columns and writing each permuted row once, in its final place. It is
// how the engine realizes the GAO-consistency assumption (§4.1): each atom
// gets an index whose attribute order follows the global attribute order.
func (r *Relation) Permute(perm []int) *Relation {
	if len(perm) != r.arity {
		panic("relation: Permute length mismatch")
	}
	identity := true
	for k, p := range perm {
		if p != k {
			identity = false
			break
		}
	}
	if identity {
		return r
	}
	if r.n >= radixMinRows && r.n <= math.MaxInt32 {
		// Sort the row indexes by the permuted columns and write each row
		// once, permuted, in its final place.
		return fromSortedRows(r.name, r.arity, gatherRows(r.rows, r.arity, perm, radixOrder(r.rows, r.arity, perm)))
	}
	rows := make([]int64, len(r.rows))
	for i := 0; i < r.n; i++ {
		src := r.rows[i*r.arity : (i+1)*r.arity]
		dst := rows[i*r.arity : (i+1)*r.arity]
		for k, p := range perm {
			dst[k] = src[p]
		}
	}
	return fromSortedRows(r.name, r.arity, sortRows(rows, r.arity))
}

// lowerBound returns the first row index in [lo, hi) whose value at column
// col is >= v. Rows in [lo, hi) must share a common prefix on columns < col
// so that column col is sorted within the range.
func (r *Relation) lowerBound(col, lo, hi int, v int64) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return r.rows[(lo+i)*r.arity+col] >= v
	})
}

// upperBound is lowerBound with a strict comparison (> v).
func (r *Relation) upperBound(col, lo, hi int, v int64) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return r.rows[(lo+i)*r.arity+col] > v
	})
}

// PrefixRange returns the half-open row range [lo, hi) of tuples whose first
// len(prefix) columns equal prefix. An empty range is returned when no tuple
// matches.
func (r *Relation) PrefixRange(prefix []int64) (lo, hi int) {
	lo, hi = 0, r.n
	for col, v := range prefix {
		lo = r.lowerBound(col, lo, hi, v)
		hi = r.upperBound(col, lo, hi, v)
		if lo == hi {
			return lo, hi
		}
	}
	return lo, hi
}

// Contains reports whether the full tuple is present.
func (r *Relation) Contains(tuple []int64) bool {
	if len(tuple) != r.arity {
		return false
	}
	lo, hi := r.PrefixRange(tuple)
	return lo < hi
}

// DistinctPrefixes returns the number of distinct prefixes of the given
// length (used by planners for statistics).
func (r *Relation) DistinctPrefixes(length int) int {
	if length <= 0 {
		return 1
	}
	count := 0
	for lo, hi := 0, 0; lo < r.n; lo = hi {
		hi = lo + 1
		for hi < r.n && slices.Equal(r.Tuple(lo)[:length], r.Tuple(hi)[:length]) {
			hi++
		}
		count++
	}
	return count
}

// CompareTuples compares two equal-length tuples lexicographically.
func CompareTuples(a, b []int64) int {
	for k := range a {
		switch {
		case a[k] < b[k]:
			return -1
		case a[k] > b[k]:
			return 1
		}
	}
	return 0
}
