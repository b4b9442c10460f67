package relation

import "sync/atomic"

// compactions counts overlay log fold-ins process-wide; the metrics layer
// exports it as graphjoind_overlay_compactions_total.
var compactions atomic.Int64

// OverlayCompactions returns the total number of overlay compactions (log
// fold-ins to a fresh base trie) performed by this process.
func OverlayCompactions() int64 { return compactions.Load() }

// Overlay is an incrementally maintainable CSR trie: an immutable base trie
// plus two small sorted logs — adds (tuples present but absent from the
// base) and dels (base tuples that have been deleted) — materialized as
// tiny CSR tries of their own. Cursors and gap probes merge the three at
// trie-cursor level, so an update batch costs O(|log|) instead of the
// O(arity · n) full trie rebuild a plain CSR trie would need; when the logs
// grow past a fraction of the base, Apply compacts them into a fresh base
// trie and starts over. This is the structure every GAO-consistent index of
// the database is (core.DB.TrieIndex), so compiled plans survive writes.
//
// Invariants (established by the caller, checked against in Apply):
// adds ∩ base = ∅, dels ⊆ base, adds ∩ dels = ∅. An Overlay is immutable —
// Apply returns a new snapshot sharing the unchanged parts — so concurrent
// cursors over an old snapshot stay valid while a writer installs a new
// one.
type Overlay struct {
	base         *CSRTrie
	adds, dels   *Relation
	addsT, delsT *CSRTrie
}

// Compaction thresholds: fold the logs into the base once they hold at
// least overlayCompactMin tuples and at least a quarter of the base size
// (so small relations compact eagerly and large ones amortize), or
// unconditionally past overlayCompactMax.
const (
	overlayCompactMin = 16
	overlayCompactMax = 1 << 14
)

// NewOverlay builds the base trie of a sorted relation and wraps it as an
// overlay with empty logs. The overlay keeps no reference to r: the trie is
// its one copy of the rows.
func NewOverlay(r *Relation) *Overlay {
	return &Overlay{base: NewCSRTrie(r)}
}

// Name returns the indexed relation's name.
func (o *Overlay) Name() string { return o.base.name }

// Arity returns the number of attributes.
func (o *Overlay) Arity() int { return o.base.arity }

// Len returns the live tuple count: base − deleted + added.
func (o *Overlay) Len() int { return o.base.n - o.dels.size() + o.adds.size() }

// LogLen returns the total log size (tests observe compaction through it).
func (o *Overlay) LogLen() int { return o.adds.size() + o.dels.size() }

// pristine reports whether the overlay carries no pending deltas.
func (o *Overlay) pristine() bool { return o.LogLen() == 0 }

// Apply is ApplySorted over raw tuple lists: it sorts and deduplicates each
// side first. The write path (core.DB.ApplyDelta) already holds its batch as
// sorted relations and calls ApplySorted directly.
func (o *Overlay) Apply(ins, dels [][]int64) *Overlay {
	return o.ApplySorted(FromTuples(o.Name(), o.Arity(), ins), FromTuples(o.Name(), o.Arity(), dels))
}

// ApplySorted returns a new overlay snapshot with the update batch folded
// into the logs (or, past the compaction threshold, into a fresh base trie).
// ins must be absent from the overlay's current contents and dels present in
// them — core.DB.ApplyDelta filters the raw batch down to exactly that
// before calling; a tuple on both sides is an insert-then-delete, a no-op
// here. Tuples that cancel a pending log entry (re-inserting a deleted
// tuple, deleting a pending insert) shrink the logs instead of growing
// them. Cost per batch is one linear merge of each log plus one presized
// build of the two small log tries — O(|log| + |batch|·log |log|), with
// |log| bounded by the compaction threshold and no dependence on the base.
func (o *Overlay) ApplySorted(ins, dels *Relation) *Overlay {
	ins, dels = ins.minus(dels), dels.minus(ins)
	if ins.n == 0 && dels.n == 0 {
		return o
	}
	// An insert either restores a tuple with a pending tombstone (shrinking
	// dels) or is genuinely new (growing adds); a delete either cancels a
	// pending insert (shrinking adds) or tombstones a base tuple (growing
	// dels).
	insNew := ins.minus(o.dels)
	insRestored := ins.minus(insNew)
	delsBase := dels.minus(o.adds)
	delsPending := dels.minus(delsBase)
	next := &Overlay{base: o.base}
	next.adds = mergeLog(o.adds, insNew, delsPending)
	next.dels = mergeLog(o.dels, delsBase, insRestored)
	if n := next.LogLen(); n >= overlayCompactMax || (n >= overlayCompactMin && 4*n >= o.base.n) {
		compactions.Add(1)
		return NewOverlay(next.Flat())
	}
	if next.adds != nil {
		next.addsT = NewCSRTrie(next.adds)
	}
	if next.dels != nil {
		next.delsT = NewCSRTrie(next.dels)
	}
	return next
}

// mergeLog returns log ∪ add \ remove by one linear merge (add ∩ log = ∅ and
// remove ⊆ log hold by construction in ApplySorted). Empty logs stay nil so
// the pristine fast path keeps applying.
func mergeLog(log, add, remove *Relation) *Relation {
	merged := add
	if log != nil {
		merged = MergeDelta(log, add, remove)
	}
	if merged.n == 0 {
		return nil
	}
	return merged
}

// Rows calls yield with every tuple of the overlay's contents, base ∪ adds ∖
// dels, in lexicographic order, until yield returns false: the base trie's
// rows, walked off its levels, merged with the two logs as MergeDelta merges
// flat rows — allocating no copy of the contents. The slice yield receives
// is read-only and valid only until yield returns. Checkpoints encode the
// rows straight from here.
func (o *Overlay) Rows(yield func(row []int64) bool) {
	base := o.base.rows()
	adds, dels := o.adds, o.dels
	j, k := 0, 0 // cursors into adds and dels
	for t := base.next(); t != nil || j < adds.size(); {
		if t == nil || j < adds.size() && CompareTuples(adds.Tuple(j), t) < 0 {
			if !yield(adds.Tuple(j)) {
				return
			}
			j++
			continue
		}
		// dels ⊆ base, in the same order: each matches the base row at hand
		// when the walk reaches it.
		if k < dels.size() && CompareTuples(dels.Tuple(k), t) == 0 {
			k++
		} else if !yield(t) {
			return
		}
		t = base.next()
	}
}

// Runs calls yield with each first-attribute key of the overlay's contents
// and the number of rows it leads, in key order, until yield returns false.
// It merges the three tries' first levels and reads no level below them: a
// key leads its base span plus its adds span less its dels span (adds ∩ base
// = ∅ and dels ⊆ base), and a key whose rows are all deleted is skipped.
func (o *Overlay) Runs(yield func(key int64, rows int) bool) {
	var at [3]int32 // per trie (base, adds, dels), the next first-level node
	tries := [3]*CSRTrie{o.base, o.addsT, o.delsT}
	take := func(s int, key int64) int32 { // key's span in trie s, then step past it
		if t := tries[s]; t != nil && int(at[s]) < len(t.levels[0].vals) && t.levels[0].vals[at[s]] == key {
			at[s]++
			return t.span(0, at[s]-1)
		}
		return 0
	}
	for {
		key, more := PosInf, false
		for s, t := range tries[:2] {
			if t != nil && int(at[s]) < len(t.levels[0].vals) {
				key, more = min(key, t.levels[0].vals[at[s]]), true
			}
		}
		if !more {
			return
		}
		if n := take(0, key) + take(1, key) - take(2, key); n > 0 && !yield(key, int(n)) {
			return
		}
	}
}

// Flat materialises the overlay's contents as a flat relation: Rows
// collected into one presized slice. Compaction and the database's flat view
// (core.DB.Relation) come through here; nothing memoises the result, so
// callers that want to keep it hold it themselves.
func (o *Overlay) Flat() *Relation {
	rows := make([]int64, 0, o.Len()*o.Arity())
	o.Rows(func(t []int64) bool {
		rows = append(rows, t...)
		return true
	})
	return fromSortedRows(o.Name(), o.Arity(), rows)
}

// NewCursor returns a trie cursor over the overlay's merged contents.
func (o *Overlay) NewCursor() Cursor {
	c := new(OverlayCursor)
	c.Reset(o)
	return c
}

// OverlayCursor is the one cursor over an Overlay. It merges the base trie
// (with deleted subtrees masked out) and the adds trie into one trie cursor.
// At every level the visible key set is {base keys whose subtree is not
// fully deleted} ∪ {adds keys}; Open descends whichever sides carry the
// selected key, with the dels trie tracking the base path to answer the
// fully-deleted test via subtree spans.
//
// Because the logs are small relative to the base, almost every subtree is
// untouched by them: once both log sides go dead on the current path
// (tracked in pure), every operation below that depth delegates straight to
// the base cursor — one integer compare of overhead — so the merged cursor
// costs only where a delta actually landed. A pristine overlay is pure from
// the root down, so it costs nothing until the first delta arrives.
//
// The zero value is unusable; Reset (or NewCursor) targets a cursor at an
// overlay, and re-targets it in place, reusing its buffers.
type OverlayCursor struct {
	o *Overlay
	// b walks the base; a and d the adds and dels logs, each targeted at a
	// nil trie (and never moved) while its log is empty.
	b, a, d CSRCursor
	depth   int
	// pure is the shallowest opened depth at which only the base side is
	// active; at depths >= pure the cursor is exactly the base cursor. An
	// unreachable sentinel (> arity) means the path is still merged.
	pure int
	// on holds, per opened level up to pure, which sides hold the current
	// path prefix.
	on []sides
}

// sides records which of an OverlayCursor's base, adds and dels cursors
// hold the current path prefix at one level.
type sides struct{ b, a, d bool }

// Reset targets the cursor at the root of o's merged contents. Reset(nil)
// drops the cursor's overlay and tries, keeping its buffers, so a pooled
// cursor pins no generation; the cursor is unusable until the next Reset.
func (c *OverlayCursor) Reset(o *Overlay) {
	c.o, c.depth, c.on = o, 0, c.on[:0]
	if o == nil {
		c.b.reset(nil)
		c.a.reset(nil)
		c.d.reset(nil)
		return
	}
	c.b.reset(o.base)
	c.a.reset(o.addsT)
	c.d.reset(o.delsT)
	c.pure = 0
	if !o.pristine() {
		c.pure = o.base.arity + 1
		if cap(c.on) < o.base.arity {
			c.on = make([]sides, 0, o.base.arity)
		}
	}
}

func (c *OverlayCursor) push(s sides) {
	c.on = append(c.on, s)
	c.depth++
}

// bLive reports whether the base side is active and holds a key at the
// current level (after deleted-subtree skipping).
func (c *OverlayCursor) bLive() bool { return c.on[c.depth-1].b && !c.b.AtEnd() }

func (c *OverlayCursor) aLive() bool { return c.on[c.depth-1].a && !c.a.AtEnd() }

// skipDeleted advances the base cursor past keys whose subtrees are fully
// deleted, keeping the dels cursor aligned. The base cursor's position
// invariant after every move: it rests on a visible key or at the end of
// the level.
func (c *OverlayCursor) skipDeleted() {
	if on := c.on[c.depth-1]; !on.b || !on.d {
		return
	}
	for !c.b.AtEnd() {
		c.d.SeekGE(c.b.Key())
		if c.d.AtEnd() || c.d.Key() != c.b.Key() || c.d.Span() < c.b.Span() {
			return
		}
		c.b.Next()
	}
}

// Open descends one level to the current node's first child.
func (c *OverlayCursor) Open() {
	if c.depth == c.o.base.arity {
		panic("relation: OverlayCursor.Open below leaf level")
	}
	if c.depth >= c.pure {
		c.b.Open()
		c.depth++
		return
	}
	if c.depth == 0 {
		c.b.Open()
		on := sides{b: true, a: c.a.t != nil, d: c.d.t != nil}
		if on.a {
			c.a.Open()
		}
		if on.d {
			c.d.Open()
		}
		c.push(on)
		c.skipDeleted()
		return
	}
	if c.AtEnd() {
		panic("relation: OverlayCursor.Open at end of level")
	}
	k := c.Key()
	on := sides{b: c.bLive() && c.b.Key() == k, a: c.aLive() && c.a.Key() == k}
	if on.b && c.on[c.depth-1].d {
		c.d.SeekGE(k)
		on.d = !c.d.AtEnd() && c.d.Key() == k
	}
	if on.b {
		c.b.Open()
	}
	if on.a {
		c.a.Open()
	}
	if on.d {
		c.d.Open()
	}
	c.push(on)
	if on.b && !on.a && !on.d {
		c.pure = c.depth // this subtree is untouched by the logs
		return
	}
	c.skipDeleted()
}

// Up pops back to the previous level. It panics at the root.
func (c *OverlayCursor) Up() {
	if c.depth == 0 {
		panic("relation: OverlayCursor.Up at root")
	}
	if c.depth > c.pure {
		c.b.Up()
		c.depth--
		return
	}
	top := c.depth - 1
	on := c.on[top]
	if on.b {
		c.b.Up()
	}
	if on.a {
		c.a.Up()
	}
	if on.d {
		c.d.Up()
	}
	c.on = c.on[:top]
	c.depth--
	if c.depth < c.pure {
		c.pure = c.o.base.arity + 1 // left the pure subtree
	}
}

// AtEnd reports whether the current level is exhausted.
func (c *OverlayCursor) AtEnd() bool {
	if c.depth >= c.pure {
		return c.b.AtEnd()
	}
	return !c.bLive() && !c.aLive()
}

// Key returns the current key at the current level: the least key either
// side offers.
func (c *OverlayCursor) Key() int64 {
	if c.depth >= c.pure {
		return c.b.Key()
	}
	bOk, aOk := c.bLive(), c.aLive()
	switch {
	case bOk && aOk:
		bk, ak := c.b.Key(), c.a.Key()
		if bk <= ak {
			return bk
		}
		return ak
	case bOk:
		return c.b.Key()
	default:
		return c.a.Key()
	}
}

// Next advances to the next distinct visible key.
func (c *OverlayCursor) Next() {
	if c.depth >= c.pure {
		c.b.Next()
		return
	}
	if c.AtEnd() {
		return
	}
	k := c.Key()
	if c.bLive() && c.b.Key() == k {
		c.b.Next()
		c.skipDeleted()
	}
	if c.aLive() && c.a.Key() == k {
		c.a.Next()
	}
}

// SeekGE positions at the least visible key >= v at the current level.
// Seeking backwards is a no-op.
func (c *OverlayCursor) SeekGE(v int64) {
	if c.depth >= c.pure {
		c.b.SeekGE(v)
		return
	}
	if c.AtEnd() || c.Key() >= v {
		return
	}
	if c.bLive() {
		c.b.SeekGE(v)
		c.skipDeleted()
	}
	if c.aLive() {
		c.a.SeekGE(v)
	}
}

// PureLevel exposes the current level while the cursor reads its base trie
// alone — every level of a pristine overlay, and every level below the
// point where both logs leave the path: vals is the base trie's key array
// at this depth, *pos the cursor's own position in it and hi the end of the
// current sibling range, so Key is vals[*pos] and AtEnd is *pos >= hi. A
// caller may move *pos forward within [*pos, hi] — by one for Next, by
// GallopGE for SeekGE — in place of those calls. The level stays exposed
// while the cursor opens levels below it and comes back, until it goes up
// from this level or is Reset. ok is false at the root and while this
// level merges a live log; vals and pos are then nil.
func (c *OverlayCursor) PureLevel() (vals []int64, pos *int32, hi int32, ok bool) {
	if c.depth == 0 || c.depth < c.pure {
		return nil, nil, 0, false
	}
	f := &c.b.lv[c.depth-1]
	return c.b.t.levels[c.depth-1].vals, &f.pos, f.hi, true
}

// CountLeaf returns the number of visible keys in [lo, hi) among the
// children the last Open entered, without moving the cursor; the cursor
// must be at the leaf level. A level read off the base trie alone costs two
// binary searches over its sibling range. A merged leaf counts each side
// over its node's whole child range — never from the base side's position,
// which skipDeleted may have moved past tombstoned keys — as |base| −
// |dels| + |adds|: exact at the leaf, where dels ⊆ base and adds ∩ base = ∅.
func (c *OverlayCursor) CountLeaf(lo, hi int64) int64 {
	if c.depth != c.o.base.arity {
		panic("relation: OverlayCursor.CountLeaf above the leaf level")
	}
	if c.depth >= c.pure {
		return c.b.countIn(lo, hi)
	}
	on, n := c.on[c.depth-1], int64(0)
	if on.b {
		n += c.b.countIn(lo, hi)
	}
	if on.d {
		n -= c.d.countIn(lo, hi)
	}
	if on.a {
		n += c.a.countIn(lo, hi)
	}
	return n
}

// ProbeGap is CSRTrie.ProbeGap over the overlay's merged contents: walk
// the three tries level by level, treating a base node as present only
// while its subtree is not fully deleted, and report gap endpoints as the
// tightest visible neighbours across the base and adds sides. Semantics
// match the flat reference exactly (the overlay differential tests pin
// this).
func (o *Overlay) ProbeGap(point []int64) (Gap, bool) {
	if o.pristine() {
		return o.base.ProbeGap(point)
	}
	arity := o.base.arity
	if len(point) != arity {
		panic("relation: ProbeGap point length mismatch")
	}
	bLo, bHi := int32(0), int32(len(o.base.levels[0].vals))
	bOk := true
	var aLo, aHi int32
	aOk := o.addsT != nil
	if aOk {
		aHi = int32(len(o.addsT.levels[0].vals))
	}
	var dLo, dHi int32
	dOk := o.delsT != nil
	if dOk {
		dHi = int32(len(o.delsT.levels[0].vals))
	}
	for col := 0; col < arity; col++ {
		v := point[col]
		var bPos, aPos, dPos int32
		bHas, aHas, dHas := false, false, false
		var bvals, avals, dvals []int64
		if bOk {
			bvals = o.base.levels[col].vals
			bPos = lowerBound64(bvals, bLo, bHi, v)
			bHas = bPos < bHi && bvals[bPos] == v
		}
		if dOk {
			dvals = o.delsT.levels[col].vals
			dPos = lowerBound64(dvals, dLo, dHi, v)
			dHas = dPos < dHi && dvals[dPos] == v
		}
		bVis := bHas && !(dHas && o.delsT.span(col, dPos) == o.base.span(col, bPos))
		if aOk {
			avals = o.addsT.levels[col].vals
			aPos = lowerBound64(avals, aLo, aHi, v)
			aHas = aPos < aHi && avals[aPos] == v
		}
		if bVis || aHas {
			if col+1 < arity {
				if bVis {
					bLo, bHi = o.base.levels[col+1].start[bPos], o.base.levels[col+1].start[bPos+1]
				} else {
					bOk = false
				}
				if dOk = bVis && dHas; dOk {
					dLo, dHi = o.delsT.levels[col+1].start[dPos], o.delsT.levels[col+1].start[dPos+1]
				}
				if aHas {
					aLo, aHi = o.addsT.levels[col+1].start[aPos], o.addsT.levels[col+1].start[aPos+1]
				} else {
					aOk = false
				}
			}
			continue
		}
		g := Gap{Col: col, Lo: NegInf, Hi: PosInf}
		if aOk {
			if aPos > aLo {
				g.Lo = avals[aPos-1]
			}
			if aPos < aHi {
				g.Hi = avals[aPos]
			}
		}
		if bOk {
			for i := bPos - 1; i >= bLo; i-- {
				if o.baseVisible(col, i, dOk, dLo, dHi) {
					if bvals[i] > g.Lo {
						g.Lo = bvals[i]
					}
					break
				}
			}
			lub := bPos
			if bHas { // present in base but fully deleted
				lub++
			}
			for i := lub; i < bHi; i++ {
				if o.baseVisible(col, i, dOk, dLo, dHi) {
					if bvals[i] < g.Hi {
						g.Hi = bvals[i]
					}
					break
				}
			}
		}
		return g, false
	}
	return Gap{}, true
}

// ProbeGapFinger is ProbeGap resuming from f's last path when the overlay is
// pristine (the base trie answers alone). An overlay with a live log merges
// three tries per level and leaves f alone.
func (o *Overlay) ProbeGapFinger(point []int64, f *ProbeFinger) (Gap, bool) {
	if o.pristine() {
		return o.base.probeGap(point, f)
	}
	return o.ProbeGap(point)
}

// LeafRange returns the last-level keys below prefix, which holds arity-1
// keys: the sorted values v with (prefix, v) in the overlay, a sub-slice of
// the base trie's last level (empty when the prefix is absent). The overlay
// must be pristine (LogLen() == 0). Like ProbeGapFinger it resumes the
// descent from f's last path and leaves this one there, so a caller that
// has just probed a point extending prefix pays for no search above the
// last level.
func (o *Overlay) LeafRange(prefix []int64, f *ProbeFinger) []int64 {
	if !o.pristine() {
		panic("relation: LeafRange over an overlay with a live log")
	}
	if len(prefix) != o.base.arity-1 {
		panic("relation: LeafRange prefix length mismatch")
	}
	_, found, lo, hi := o.base.descend(prefix, f)
	if !found {
		return nil
	}
	return o.base.levels[len(prefix)].vals[lo:hi]
}

// baseVisible reports whether base node i at the given level survives the
// dels log (its subtree is not fully deleted).
func (o *Overlay) baseVisible(col int, i int32, dOk bool, dLo, dHi int32) bool {
	if !dOk {
		return true
	}
	dvals := o.delsT.levels[col].vals
	k := o.base.levels[col].vals[i]
	dp := lowerBound64(dvals, dLo, dHi, k)
	if dp < dHi && dvals[dp] == k && o.delsT.span(col, dp) == o.base.span(col, i) {
		return false
	}
	return true
}
