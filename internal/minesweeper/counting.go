package minesweeper

// counterTrace, when non-nil, observes counter events (tests only).
var counterTrace func(ev string, args ...interface{})

// counter implements count-mode subtree reuse, our sound realization of
// #Minesweeper's Idea 8 (micro message passing); see ARCHITECTURE.md,
// "Count-memo soundness". The verified-output count of the subtree rooted at
// a binding (t_0..t_d) depends only on d and the values of t at
//
//	ctx(d) = {d} ∪ ⋃ { vars(R) ∩ GAO[0..d] : R has a variable after d }
//
// provided the atoms fully contained in GAO[0..d] are satisfied. The counter
// tracks per-depth accumulators while the frontier sweeps the output space
// in DFS (lexicographic) order, memoizes each exhausted subtree's count
// under its ctx key, and on a memo hit skips the whole subtree by advancing
// the frontier — the same computation reuse that makes the paper's
// low-selectivity path queries fast (Figures 3–5).
//
// It is part of the execution frame: reset re-derives the shape for the
// run's atoms and empties the memo tables, keeping their storage.
type counter struct {
	ex *exec
	n  int
	// ctxPos(d) are the sorted positions determining subtree counts at depth
	// d; contained(d) are the atoms fully inside GAO[0..d] that must be
	// re-verified before a memoized count transfers to a new prefix. Both
	// are stored back to back: depth d's run ends at ctxEnd[d] / contEnd[d].
	ctx     []int
	ctxEnd  []int
	cont    []int
	contEnd []int
	// memo[d] maps the values at ctxPos(d) to the subtree count.
	memo   []memoTable
	acc    []int64
	open   []bool
	prev   []int64
	prevOK bool
}

// reset prepares the counter for a run of ex, whose atoms' VarPos give each
// atom's GAO positions in ascending order.
func (c *counter) reset(ex *exec) {
	n := ex.n
	c.ex, c.n, c.prevOK = ex, n, false
	c.ctx, c.ctxEnd = c.ctx[:0], c.ctxEnd[:0]
	c.cont, c.contEnd = c.cont[:0], c.contEnd[:0]
	c.acc, c.open, c.prev = c.acc[:0], c.open[:0], c.prev[:0]
	if have := cap(c.memo); have < n {
		c.memo = append(c.memo[:have], make([]memoTable, n-have)...)
	}
	c.memo = c.memo[:n]
	for d := 0; d < n; d++ {
		c.acc, c.open, c.prev = append(c.acc, 0), append(c.open, false), append(c.prev, 0)
		for p := 0; p <= d; p++ {
			if p == d || c.inCtx(p, d) {
				c.ctx = append(c.ctx, p)
			}
		}
		for i, a := range ex.atoms {
			if a.VarPos[len(a.VarPos)-1] <= d {
				c.cont = append(c.cont, i)
			}
		}
		c.memo[d].reset(len(c.ctx) - runStart(c.ctxEnd, d))
		c.ctxEnd = append(c.ctxEnd, len(c.ctx))
		c.contEnd = append(c.contEnd, len(c.cont))
	}
}

// inCtx reports whether position p <= d belongs to an atom reaching past d.
func (c *counter) inCtx(p, d int) bool {
	for _, a := range c.ex.atoms {
		if a.VarPos[len(a.VarPos)-1] <= d {
			continue
		}
		for _, ap := range a.VarPos {
			if ap == p {
				return true
			}
		}
	}
	return false
}

// runStart returns where depth d's run starts in a back-to-back store.
func runStart(ends []int, d int) int {
	if d == 0 {
		return 0
	}
	return ends[d-1]
}

func (c *counter) ctxPos(d int) []int    { return c.ctx[runStart(c.ctxEnd, d):c.ctxEnd[d]] }
func (c *counter) contained(d int) []int { return c.cont[runStart(c.contEnd, d):c.contEnd[d]] }

// containedSatisfied reports whether every atom fully contained in
// GAO[0..d] holds on tuple t (probes are memoized by the engine).
func (c *counter) containedSatisfied(d int, t []int64) bool {
	for _, i := range c.contained(d) {
		if _, found := c.ex.probeAtom(i, t); !found {
			return false
		}
	}
	return true
}

// visit is called for every free tuple before probing. It closes subtrees
// the frontier has moved past, then attempts a memo hit at the shallowest
// newly opened depth. On a hit it adds the memoized count, advances the
// frontier past the subtree, and reports reused == true.
func (c *counter) visit(t []int64) (reused bool) {
	first := 0
	if c.prevOK {
		for first < c.n && c.prev[first] == t[first] {
			first++
		}
		c.flush(first)
	}
	if counterTrace != nil {
		counterTrace("visit", first, append([]int64(nil), t...), append([]bool(nil), c.open...), append([]int64(nil), c.acc...))
	}
	copy(c.prev, t)
	c.prevOK = true
	// Try to reuse a memoized subtree at the shallowest reusable depth.
	for d := first; d <= c.n-2; d++ {
		val, ok := c.memo[d].get(c.ctxPos(d), t)
		if !ok {
			continue
		}
		if !c.containedSatisfied(d, t) {
			// Some prefix-contained atom fails here; the normal probe loop
			// will discover the gap and advance. Deeper memo hits would need
			// the same (growing) verification, so stop trying — but the
			// newly opened depths must still be marked open below, or their
			// accumulated counts would be dropped at the next flush.
			break
		}
		if counterTrace != nil {
			counterTrace("reuse", d, append([]int64(nil), t...), val)
		}
		// Close the subtree immediately with the reused count; the shallower
		// depths opened by this tuple stay open.
		c.ex.stats.ReuseHits++
		c.ex.total += val
		c.acc[d] += val
		if d > 0 {
			c.acc[d-1] += c.acc[d]
		}
		c.acc[d] = 0
		for i := first; i < d; i++ {
			c.open[i] = true
		}
		for i := d; i < c.n; i++ {
			c.open[i] = false
		}
		c.ex.cds.AdvancePast(d)
		return true
	}
	for d := first; d < c.n; d++ {
		c.open[d] = true
	}
	return false
}

// credit adds k outputs — one reported tuple, or a leaf message's count of
// a whole prefix — to the deepest open subtree.
func (c *counter) credit(k int64) {
	if counterTrace != nil {
		counterTrace("output", append([]int64(nil), c.prev...), k)
	}
	c.acc[c.n-1] += k
}

// flush closes every open subtree at depth >= first against the previous
// tuple: the count rolls up into the parent accumulator and, when the
// prefix-contained atoms were satisfied, is memoized under the subtree's
// ctx key.
func (c *counter) flush(first int) {
	for d := c.n - 1; d >= first; d-- {
		if !c.open[d] {
			continue
		}
		c.open[d] = false
		if d <= c.n-2 && c.containedSatisfied(d, c.prev) {
			if counterTrace != nil {
				counterTrace("store", d, append([]int64(nil), c.prev...), c.acc[d])
			}
			c.ex.stats.MemoStores++
			c.memo[d].put(c.ctxPos(d), c.prev, c.acc[d])
		}
		if d > 0 {
			c.acc[d-1] += c.acc[d]
		}
		c.acc[d] = 0
	}
}

// finish closes any remaining open subtrees (counts are already in
// ex.total; this only settles the accumulators).
func (c *counter) finish() {
	if c.prevOK {
		c.flush(0)
	}
}

// retained is the number of bytes reset keeps allocated in the memo tables.
func (c *counter) retained() int {
	total := 0
	for _, m := range c.memo[:cap(c.memo)] {
		total += (cap(m.keys)+cap(m.counts))*8 + cap(m.slots)*4
	}
	return total
}

// memoTable is one depth's count memo: an open-addressing table from the
// values at ctxPos(d) to a subtree count. The keys are fixed-width runs of
// int64 in the frame and are compared in full; the hash only picks the slot.
type memoTable struct {
	width  int
	keys   []int64 // entry e's key is keys[e*width : (e+1)*width]
	counts []int64 // entry e's subtree count
	slots  []int32 // entry+1, or 0 for an empty slot; a power of two long
}

const memoMinSlots = 16

func (m *memoTable) reset(width int) {
	m.width = width
	m.keys, m.counts = m.keys[:0], m.counts[:0]
	m.resize(memoMinSlots)
}

// resize empties the slot array at the given length, reusing its storage.
func (m *memoTable) resize(n int) {
	if cap(m.slots) < n {
		m.slots = make([]int32, n)
		return
	}
	m.slots = m.slots[:n]
	clear(m.slots)
}

func mix(h uint64, v int64) uint64 {
	h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// find returns the entry holding the key t[pos[0]], t[pos[1]], ... (-1 when
// absent) and the slot where the probe sequence ended.
func (m *memoTable) find(pos []int, t []int64) (entry, slot int) {
	var h uint64
	for _, p := range pos {
		h = mix(h, t[p])
	}
	mask := len(m.slots) - 1
probe:
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := int(m.slots[s]) - 1
		if e < 0 {
			return -1, s
		}
		key := m.keys[e*m.width:]
		for j, p := range pos {
			if key[j] != t[p] {
				continue probe
			}
		}
		return e, s
	}
}

func (m *memoTable) get(pos []int, t []int64) (int64, bool) {
	if e, _ := m.find(pos, t); e >= 0 {
		return m.counts[e], true
	}
	return 0, false
}

func (m *memoTable) put(pos []int, t []int64, count int64) {
	e, s := m.find(pos, t)
	if e >= 0 {
		m.counts[e] = count
		return
	}
	for _, p := range pos {
		m.keys = append(m.keys, t[p])
	}
	m.counts = append(m.counts, count)
	m.slots[s] = int32(len(m.counts))
	if 2*len(m.counts) > len(m.slots) {
		m.rehash(2 * len(m.slots))
	}
}

// rehash re-seats every entry in a slot array of length n.
func (m *memoTable) rehash(n int) {
	m.resize(n)
	mask := n - 1
	for e := range m.counts {
		var h uint64
		for _, v := range m.keys[e*m.width : (e+1)*m.width] {
			h = mix(h, v)
		}
		s := int(h) & mask
		for m.slots[s] != 0 {
			s = (s + 1) & mask
		}
		m.slots[s] = int32(e + 1)
	}
}
