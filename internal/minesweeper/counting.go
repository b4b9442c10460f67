package minesweeper

import "repro/internal/core"

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
	// ctx holds ctx(d), the positions determining subtree counts at depth d,
	// d included; memo[d] maps their values to the subtree count.
	ctx    core.Ctx
	memo   []core.MemoTable
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
	c.ctx.Reset(ex.atoms, n, true)
	c.acc, c.open, c.prev = c.acc[:0], c.open[:0], c.prev[:0]
	if have := cap(c.memo); have < n {
		c.memo = append(c.memo[:have], make([]core.MemoTable, n-have)...)
	}
	c.memo = c.memo[:n]
	for d := 0; d < n; d++ {
		c.acc, c.open, c.prev = append(c.acc, 0), append(c.open, false), append(c.prev, 0)
		c.memo[d].Reset(len(c.ctx.At(d)))
	}
}

// containedSatisfied reports whether every atom fully contained in
// GAO[0..d] — the atoms that must be re-verified before a memoized count
// transfers to a new prefix — holds on tuple t (probes are memoized by the
// engine).
func (c *counter) containedSatisfied(d int, t []int64) bool {
	for i, a := range c.ex.atoms {
		if a.VarPos[len(a.VarPos)-1] > d {
			continue
		}
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
	copy(c.prev, t)
	c.prevOK = true
	// Try to reuse a memoized subtree at the shallowest reusable depth.
	for d := first; d <= c.n-2; d++ {
		val, ok := c.memo[d].Get(c.ctx.At(d), t)
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
			c.ex.stats.MemoStores++
			c.memo[d].Put(c.ctx.At(d), c.prev, c.acc[d])
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
