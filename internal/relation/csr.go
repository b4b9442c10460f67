package relation

import (
	"fmt"
	"math"
	"math/bits"
)

// CSRTrie is a materialized attribute trie over a sorted relation, stored in
// compressed-sparse-row layout: one contiguous key array per attribute level
// plus an offset array mapping each node to its children's range in the next
// level (the layout TrieJax and EmptyHeaded use for worst-case-optimal join
// indices). Where a cursor over the flat Relation re-derives child ranges by
// binary search over full row ranges on every Open/Next, the CSR trie resolves
// Open and Next in O(1) array arithmetic and SeekGE by galloping over a
// dense, cache-resident key array — the access pattern of the innermost
// leapfrog loop. A CSRTrie is immutable and safe for concurrent cursors.
type CSRTrie struct {
	name  string
	arity int
	n     int
	// levels[d] materializes trie depth d (attribute column d).
	levels []csrLevel
}

// csrLevel is one materialized trie level: vals holds the keys of every node
// at this depth, grouped by parent; start[p] .. start[p+1] bounds the
// children of parent node p in vals (level 0 has the single virtual root as
// parent, so start is [0, len(vals)]). Nothing else is stored: a tuple costs
// 8 bytes at the leaf and an inner node 12 (its key and its children's
// offset), and a node's row span follows from start (CSRTrie.firstRow).
type csrLevel struct {
	vals  []int64
	start []int32
}

// firstRow returns the first row of node i's subtree at level d: the leaf
// below it reached by first children, since the leaf level holds one node per
// row. Node i == len(levels[d].vals) is allowed and gives n.
func (t *CSRTrie) firstRow(d int, i int32) int32 {
	for d++; d < t.arity; d++ {
		i = t.levels[d].start[i]
	}
	return i
}

// span returns the subtree tuple count of node pos at level d — how many
// rows share its key path. The delta overlay's tombstone check (is a base
// subtree fully deleted?) compares spans.
func (t *CSRTrie) span(d int, pos int32) int32 {
	return t.firstRow(d, pos+1) - t.firstRow(d, pos)
}

// NewCSRTrie materializes the attribute trie of a sorted, deduplicated
// relation in two linear passes over the rows: the first counts each level's
// nodes so every array is allocated once at its final size (no append
// growth, no slack left on the built trie), the second fills them.
func NewCSRTrie(r *Relation) *CSRTrie {
	if int64(r.Len()) > math.MaxInt32 {
		panic(fmt.Sprintf("relation: CSR trie over %d tuples exceeds int32 offsets", r.Len()))
	}
	a := r.arity
	t := &CSRTrie{name: r.name, arity: a, n: r.n, levels: make([]csrLevel, a)}
	// A row opens a new node at every level from its first column that
	// differs from the previous row down to the leaf.
	firstDiff := func(i int) int {
		if i == 0 {
			return 0
		}
		row, prev := r.rows[i*a:(i+1)*a], r.rows[(i-1)*a:i*a]
		d := 0
		for d < a-1 && row[d] == prev[d] {
			d++
		}
		return d
	}
	opened := make([]int, a) // opened[d]: rows whose first differing column is d
	for i := 0; i < r.n; i++ {
		opened[firstDiff(i)]++
	}
	parents := 1 // the virtual root
	for d, nodes := 0, 0; d < a; d++ {
		nodes += opened[d]
		t.levels[d] = csrLevel{
			vals:  make([]int64, nodes),
			start: make([]int32, parents+1),
		}
		parents = nodes
	}
	next := opened // reused: next[d] is the next free node slot at level d
	clear(next)
	for i := 0; i < r.n; i++ {
		for d := firstDiff(i); d < a; d++ {
			k := next[d]
			t.levels[d].vals[k] = r.rows[i*a+d]
			if d+1 < a {
				t.levels[d+1].start[k] = int32(next[d+1])
			}
			next[d]++
		}
	}
	// Close every level: the end offset of the last parent's children.
	t.levels[0].start[1] = int32(next[0])
	for d := 0; d+1 < a; d++ {
		t.levels[d+1].start[next[d]] = int32(next[d+1])
	}
	return t
}

// trieRows pulls a trie's rows in lexicographic order, rebuilt from the
// levels alone (see next).
type trieRows struct {
	t    *CSRTrie
	i    int32   // rows pulled so far
	row  []int64 // the current row, rewritten by next
	node []int32 // per level, the next node to enter
}

func (t *CSRTrie) rows() trieRows {
	return trieRows{t: t, row: make([]int64, t.arity), node: make([]int32, t.arity)}
}

// next returns the next row, nil after the last, in one buffer rewritten per
// call. The leaf level enters one node per row; going up, row i enters
// node[d-1] exactly when that node's first child is the node it enters at
// level d (levels[d].start[node[d-1]] == node[d]), and a node entered at a
// level means new nodes at every level below.
func (w *trieRows) next() []int64 {
	if w.i == int32(w.t.n) {
		return nil
	}
	d := len(w.row) - 1
	for d > 0 && w.t.levels[d].start[w.node[d-1]] == w.node[d] {
		d--
	}
	for ; d < len(w.row); d++ {
		w.row[d] = w.t.levels[d].vals[w.node[d]]
		w.node[d]++
	}
	w.i++
	return w.row
}

// Name returns the indexed relation's name.
func (t *CSRTrie) Name() string { return t.name }

// Arity returns the number of attributes.
func (t *CSRTrie) Arity() int { return t.arity }

// Len returns the number of tuples (leaf nodes).
func (t *CSRTrie) Len() int { return t.n }

// Gap describes the maximal empty box a relation reports around a probe
// point (paper §4.5, Idea 3). Col is the first column at which the probe
// point leaves the relation's index: the point's prefix before Col is
// present, but extending it with point[Col] is not. Lo and Hi are the
// greatest present value < point[Col] and the least present value >
// point[Col] under that prefix (NegInf/PosInf when none), so the open
// interval (Lo, Hi) on column Col — under the equality prefix — contains no
// tuple of the relation.
type Gap struct {
	Col    int
	Lo, Hi int64
}

// ProbeGap implements seekGap from Algorithm 3. It probes the trie with the
// projected free tuple `point` (len == arity). If the tuple is present it
// returns found == true and a zero Gap; otherwise it returns the maximal gap
// box around the point as defined in §4.5:
//
//	j   = min { j : prefix(j-1) present ∧ prefix(j) absent }
//	Lo  = max { x < point[j] : (prefix, x) present } ∪ {NegInf}
//	Hi  = min { x > point[j] : (prefix, x) present } ∪ {PosInf}
//
// It walks the materialized levels with one bounded binary search each,
// descending through O(1) child-range lookups — O(arity · log n), standing
// in for the B-tree seek_glb/seek_lub operators of the LogicBlox trie index
// (Idea 4 discusses their cost; memoization lives in the Minesweeper
// engine).
func (t *CSRTrie) ProbeGap(point []int64) (gap Gap, found bool) {
	return t.probeGap(point, nil)
}

// ProbeFinger is a gap probe's memory of its last path through one trie:
// per level, the key looked up and the position the search returned (the
// child range below follows from the position). Successive Minesweeper
// probes of an atom share most of their path, so a fingered probe reuses
// the levels whose key is unchanged and starts the first changed level's
// search from the old position. The zero value is an empty finger.
type ProbeFinger struct {
	trie *CSRTrie
	n    int // path[:n] is the last probe's path in trie
	path []fingerStep
}

type fingerStep struct {
	key int64
	pos int32
}

// Reset empties the finger and drops its trie, keeping its storage.
func (f *ProbeFinger) Reset() { f.trie, f.n = nil, 0 }

// probeGap is ProbeGap resuming from f's last path (nil: none), which it
// then replaces with this probe's path.
func (t *CSRTrie) probeGap(point []int64, f *ProbeFinger) (gap Gap, found bool) {
	if len(point) != t.arity {
		panic("relation: ProbeGap point length mismatch")
	}
	gap, found, _, _ = t.descend(point, f)
	return gap, found
}

// descend walks the keys of point, at most arity of them, down from the
// root, resuming from f's last path (nil: none), which it then replaces
// with this walk's path. At the first level whose key is absent it returns
// that level's gap; when every key is present it returns found == true and,
// for a point shorter than the arity, the child range [lo, hi) below it at
// level len(point). The answer does not depend on f; a finger left by
// another trie is emptied first.
func (t *CSRTrie) descend(point []int64, f *ProbeFinger) (gap Gap, found bool, lo, hi int32) {
	var path []fingerStep
	same := 0 // levels whose search the finger answers: the keys above agree
	if f != nil {
		if f.trie != t {
			f.trie, f.n = t, 0
			if cap(f.path) < t.arity {
				f.path = make([]fingerStep, t.arity)
			}
		}
		path, same = f.path[:t.arity], f.n
	}
	lo, hi = 0, int32(len(t.levels[0].vals))
	for d := range point {
		vals := t.levels[d].vals
		v := point[d]
		var pos int32
		if d < same {
			// Same child range as last time: the old position bounds the
			// search on one side.
			switch old := path[d]; {
			case v == old.key:
				pos = old.pos
			case v > old.key:
				pos, same = GallopGE(vals, old.pos, hi, v), d
			default:
				pos, same = lowerBound64(vals, lo, old.pos, v), d
			}
		} else {
			pos = lowerBound64(vals, lo, hi, v)
		}
		if path != nil {
			path[d] = fingerStep{key: v, pos: pos}
			f.n = d + 1
		}
		if pos < hi && vals[pos] == v {
			if d+1 < t.arity {
				lo, hi = t.levels[d+1].start[pos], t.levels[d+1].start[pos+1]
			}
			continue
		}
		g := Gap{Col: d, Lo: NegInf, Hi: PosInf}
		if pos > lo {
			g.Lo = vals[pos-1]
		}
		if pos < hi {
			g.Hi = vals[pos]
		}
		return g, false, 0, 0
	}
	return Gap{}, true, lo, hi
}

// lowerBound64 returns the first index in [lo, hi) with vals[i] >= v (hi when
// none, lo when lo >= hi). It halves a window of n keys that holds the answer
// and moves the window's base by an arithmetic select, not a branch: the
// compare is a coin flip the branch predictor loses half the time, and Go
// compiles no conditional move for a loop-carried select.
func lowerBound64(vals []int64, lo, hi int32, v int64) int32 {
	n := hi - lo
	for n > 1 {
		half := n >> 1
		lo += half & lessMask(vals[lo+half], v)
		n -= half
	}
	if n == 1 && vals[lo] < v {
		lo++
	}
	return lo
}

// lessMask returns -1 (all ones) when x < y and 0 otherwise, without a
// branch: flipping the sign bits turns the signed compare into an unsigned
// one, whose answer is the borrow of x − y (Hacker's Delight 2-12).
func lessMask(x, y int64) int32 {
	_, borrow := bits.Sub64(uint64(x)^1<<63, uint64(y)^1<<63, 0)
	return -int32(borrow)
}

// GallopGE returns the first index in [pos, hi) with vals[i] >= v (hi when
// none, pos when pos >= hi), probing keys 0, 1, 3, 7, … past pos before it
// bisects: O(log distance) for a target near pos. The leapfrog loop's
// SeekGE and LFTJ's loop over the levels OverlayCursor.PureLevel exposes
// call it.
func GallopGE(vals []int64, pos, hi int32, v int64) int32 {
	// The target lies in [lo, bound]: every key before lo is < v.
	lo, bound, step := pos, pos, int32(1)
	for bound < hi && vals[bound] < v {
		lo = bound + 1
		bound += step
		step <<= 1
	}
	return lowerBound64(vals, lo, min(bound, hi), v)
}

// IntersectCount returns the number of keys common to every list, each
// sorted strictly ascending (0 for no lists): a k-way leapfrog that moves
// each list to the current candidate key with GallopGE, so a short list
// skips through a long one in O(log distance) per step. It consumes the
// lists, re-slicing each in place past the keys it has passed.
func IntersectCount(lists [][]int64) int64 {
	if len(lists) == 0 {
		return 0
	}
	x := int64(math.MinInt64) // the candidate: the largest head seen
	for _, l := range lists {
		if len(l) == 0 {
			return 0
		}
		x = max(x, l[0])
	}
	if len(lists) == 1 {
		return int64(len(lists[0]))
	}
	var n int64
	// agree counts the lists, ending with the one just moved, whose head
	// is x; when it reaches len(lists) every list holds x.
	for i, agree := 0, 0; ; {
		l := lists[i]
		l = l[GallopGE(l, 0, int32(len(l)), x):]
		if len(l) == 0 {
			lists[i] = l
			return n
		}
		if l[0] != x {
			x, agree = l[0], 1
		} else if agree++; agree == len(lists) {
			n++
			if l = l[1:]; len(l) == 0 {
				lists[i] = l
				return n
			}
			x, agree = l[0], 1
		}
		lists[i] = l
		if i++; i == len(lists) {
			i = 0
		}
	}
}

// CSRCursor is the trie cursor over a CSRTrie, with the Cursor contract:
// Open descends to the first child, Up pops back, Next/SeekGE move within
// the current level in increasing key order, and calling them at the end of
// a level is a no-op.
type CSRCursor struct {
	t     *CSRTrie
	depth int
	lv    []csrFrame // per opened level: the current node and its siblings' end
}

// csrFrame is one opened level of a CSRCursor: the current node pos in
// levels[d].vals and the end hi of its sibling range.
type csrFrame struct{ pos, hi int32 }

// NewCSRCursor returns a cursor positioned at the trie's virtual root.
func NewCSRCursor(t *CSRTrie) *CSRCursor {
	c := new(CSRCursor)
	c.reset(t)
	return c
}

// reset re-targets the cursor at the root of t (nil: no trie), keeping its
// frame buffer when it is large enough.
func (c *CSRCursor) reset(t *CSRTrie) {
	c.t, c.depth, c.lv = t, 0, c.lv[:0]
	if t != nil && cap(c.lv) < t.arity {
		c.lv = make([]csrFrame, 0, t.arity)
	}
}

// Open descends one level to the current node's first child: a direct
// offset-array lookup, no search.
func (c *CSRCursor) Open() {
	if c.depth == c.t.arity {
		panic("relation: CSRCursor.Open below leaf level")
	}
	var lo, hi int32
	lvl := &c.t.levels[c.depth]
	if c.depth == 0 {
		lo, hi = 0, int32(len(lvl.vals))
	} else {
		if c.AtEnd() {
			panic("relation: CSRCursor.Open at end of level")
		}
		p := c.lv[c.depth-1].pos
		lo, hi = lvl.start[p], lvl.start[p+1]
	}
	c.lv = append(c.lv, csrFrame{pos: lo, hi: hi})
	c.depth++
}

// Up pops back to the previous level. It panics at the root.
func (c *CSRCursor) Up() {
	if c.depth == 0 {
		panic("relation: CSRCursor.Up at root")
	}
	c.depth--
	c.lv = c.lv[:c.depth]
}

// AtEnd reports whether the current level is exhausted.
func (c *CSRCursor) AtEnd() bool {
	f := &c.lv[c.depth-1]
	return f.pos >= f.hi
}

// Key returns the current key at the current level.
func (c *CSRCursor) Key() int64 {
	cur := c.depth - 1
	return c.t.levels[cur].vals[c.lv[cur].pos]
}

// Span returns the subtree tuple count of the current node — how many
// tuples of the relation extend the key path selected so far. The delta
// overlay compares base and tombstone spans to decide whether a base
// subtree is fully deleted.
func (c *CSRCursor) Span() int32 {
	cur := c.depth - 1
	return c.t.span(cur, c.lv[cur].pos)
}

// countIn returns how many keys of the current level's whole sibling range —
// the children the last Open entered, wherever the cursor has moved since —
// lie in [lo, hi): two binary searches, the second from where the first
// stopped.
func (c *CSRCursor) countIn(lo, hi int64) int64 {
	cur := c.depth - 1
	first, end := int32(0), c.lv[cur].hi
	if cur > 0 {
		first = c.t.levels[cur].start[c.lv[cur-1].pos]
	}
	vals := c.t.levels[cur].vals
	first = lowerBound64(vals, first, end, lo)
	return int64(lowerBound64(vals, first, end, hi) - first)
}

// Next advances to the next distinct key: a single increment, because every
// node at a level is already distinct under its parent.
func (c *CSRCursor) Next() {
	f := &c.lv[c.depth-1]
	if f.pos < f.hi {
		f.pos++
	}
}

// SeekGE positions at the least key >= v at the current level, galloping
// from the current position (leapfrog seeks are usually near misses, so the
// exponential probe touches O(log distance) keys of one contiguous array).
// Seeking backwards is a no-op.
func (c *CSRCursor) SeekGE(v int64) {
	cur := c.depth - 1
	f := &c.lv[cur]
	f.pos = GallopGE(c.t.levels[cur].vals, f.pos, f.hi, v)
}
