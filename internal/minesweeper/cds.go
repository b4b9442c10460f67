// Package minesweeper implements the Minesweeper join algorithm (paper §2.3
// and §4): the engine repeatedly asks the constraint data structure (CDS)
// for a "free tuple" not ruled out by any known gap, probes the input
// indexes around it, and either reports an output or learns new gap boxes.
// All of the paper's implementation ideas are present and individually
// toggleable: the pointList encoding (Idea 1), the moving frontier (Idea 2),
// geometric gap certificates (Idea 3), probe memoization (Idea 4),
// backtracking with interval caching and truncation (Idea 5), β-acyclic
// skeletons for cyclic queries (Idea 7), and count-mode subtree reuse in the
// spirit of #Minesweeper (Idea 8). Idea 6 (complete nodes) is not: it moved
// no counter on any instance measured (docs/ARCHITECTURE.md, "Minesweeper
// CDS").
//
// The execution state is one flat, pointer-free frame that is reset and
// reused from run to run; docs/ARCHITECTURE.md, "Minesweeper CDS", describes
// the layout and argues the two soundness points the comments here cite.
package minesweeper

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/core"
	"repro/internal/relation"
)

const (
	negInf = relation.NegInf
	posInf = relation.PosInf
)

// Constraint is one gap box (paper Def 4.1): equalities at ascending GAO
// positions EqPos (values EqVal), one open interval (Lo, Hi) at position
// Col, wildcards elsewhere and everywhere after Col. InsConstraint reads the
// slices and does not keep them.
type Constraint struct {
	EqPos []int
	EqVal []int64
	Col   int
	Lo    int64
	Hi    int64
}

// nodeID addresses a node in the CDS's node slab; 0 is "no node".
type nodeID = int32

const rootID nodeID = 1

// A pointList (Idea 1) is struct-of-arrays: entry i of a node is the value
// vals[off+i] and the packed word meta[off+i], holding whether the value
// opens an interval ending at the next point (flagL), closes one (flagR),
// and the id of the child along the value edge (0: none).
const (
	flagL      uint32 = 1
	flagR      uint32 = 2
	childShift        = 2
)

// PointList blocks come in size classes: class k holds minBlock<<k entries.
const (
	minBlock   = 4
	numClasses = 30 // a class-29 block alone would overflow the int32 offsets
)

// node is a CDS tree node: its pattern is the label sequence of the root
// path (values at equality edges, * at star edges), its intervals constrain
// GAO attribute depth. The pointList invariants are:
//
//   - points are sorted by strictly increasing value;
//   - a flagL point's interval ends exactly at the next point, which has
//     flagR (intervals are disjoint, open, and have no interior points);
//   - child edges exist only at points (values not interior to an interval).
//
// A node holds no pointers: the slabs may move when they grow, so code keeps
// ids and re-derives a *node after anything that can allocate a node.
type node struct {
	eqMask  uint64 // bit p set iff pattern has an equality at position p
	edgeVal int64  // label of the edge from parent (if edgeIsVal)
	parent  nodeID // in a free node: the next free node
	star    nodeID
	off     int32 // the pointList block's first entry in vals/meta
	n       int32 // points in use
	// finger is the index the last find returned. The moving frontier
	// (Idea 2) queries an active node in almost ascending order, so the next
	// answer is at or next to it.
	finger    int32
	depth     uint8
	class     int8 // size class of the block; -1 before the first point
	edgeIsVal bool
	// hasIntervals records whether any interval was ever inserted; only
	// interval-bearing nodes belong to the principal filter G_i (§4.7:
	// "u.intervals ≠ ∅"), which keeps the chains properly nested.
	hasIntervals bool
}

// CDS is the constraint data structure (§4.3): a tree of constraint nodes,
// the moving frontier (Idea 2), and the per-depth chains of active nodes,
// all in slabs that reset keeps for the next run.
type CDS struct {
	n int
	// nodes[0] is unused, nodes[rootID] the root. Dead nodes are chained
	// through freeNode and reused before the slab grows.
	nodes    []node
	freeNode nodeID
	// vals and meta are the pointList slab. freeBlock[k] heads the list of
	// abandoned class-k blocks (-1: none), linked through each block's first
	// value, so the arena stays within about twice its live size however
	// much the run churns.
	vals      []int64
	meta      []uint32
	freeBlock [numClasses]int32
	// t is the frontier curFrontier (Idea 2); ComputeFreeTuple advances it
	// in place to the next free tuple.
	t []int64
	// actives[d] holds every node at depth d whose pattern generalizes the
	// current prefix (t[0..d-1]), sorted most-specialized first; the subset
	// with constraints is the principal filter G_d of §4.7.
	actives [][]nodeID
	// resume is the shallowest depth whose free value or active set may be
	// stale: above it, t[d] is free and actives[d] current, exactly as a
	// search from the root would leave them, so ComputeFreeTuple starts
	// there. Every mutator lowers it (lower); see ComputeFreeTuple for when
	// the search raises it.
	resume int
	// chain is freeValue's scratch for the current principal filter, stack
	// freeSubtree's.
	chain []nodeID
	stack []nodeID
	// Done is set when truncation proves the whole space is covered.
	done bool
	// steps counts free-value iterations.
	steps int
	// tick, when set, is polled once per free-value iteration; a non-nil
	// error aborts ComputeFreeTuple (context cancellation).
	tick *core.Ticker
	// Err holds the abort error after ComputeFreeTuple returns false.
	Err error
}

// reset empties the CDS for a run over n attributes, keeping every slab's
// capacity: lengths go to zero, the free lists empty, the frontier back to
// (-1, ..., -1). Nothing of the previous run stays readable — every node
// and block is initialised when it is handed out.
func (c *CDS) reset(n int) {
	c.n = n
	c.nodes = append(c.nodes[:0], node{}, node{class: -1})
	c.freeNode = 0
	c.vals = c.vals[:0]
	c.meta = c.meta[:0]
	for k := range c.freeBlock {
		c.freeBlock[k] = -1
	}
	c.t = c.t[:0]
	for i := 0; i < n; i++ {
		c.t = append(c.t, -1)
	}
	if have := cap(c.actives); have < n {
		c.actives = append(c.actives[:have], make([][]nodeID, n-have)...)
	}
	c.actives = c.actives[:n]
	for d := range c.actives {
		c.actives[d] = c.actives[d][:0]
	}
	if n > 0 {
		// The root is never freed, so actives[0] holds for the whole run.
		c.actives[0] = append(c.actives[0], rootID)
	}
	c.resume = 0
	c.chain = c.chain[:0]
	c.done = false
	c.steps = 0
	c.tick = nil
	c.Err = nil
}

// retained is the number of bytes reset keeps allocated.
func (c *CDS) retained() int {
	return cap(c.nodes)*int(unsafe.Sizeof(node{})) + cap(c.vals)*8 + cap(c.meta)*4
}

// lower records that the free value or the active set at depth d may have
// changed.
func (c *CDS) lower(d int) { c.resume = min(c.resume, d) }

// newNode hands out a node below parent: a dead one when there is any, else
// the next slab slot. It may move c.nodes. The node may lie on the current
// prefix, so actives[depth] must be recomputed from actives[depth-1].
func (c *CDS) newNode(parent nodeID, edgeVal int64, edgeIsVal bool) nodeID {
	p := &c.nodes[parent]
	nd := node{parent: parent, edgeVal: edgeVal, edgeIsVal: edgeIsVal, class: -1, depth: p.depth + 1, eqMask: p.eqMask}
	if edgeIsVal {
		nd.eqMask |= 1 << p.depth
	}
	c.lower(int(p.depth))
	if id := c.freeNode; id != 0 {
		c.freeNode = c.nodes[id].parent
		c.nodes[id] = nd
		return id
	}
	if len(c.nodes) >= math.MaxInt32>>childShift {
		panic("minesweeper: CDS exceeds 2^29 nodes")
	}
	c.nodes = append(c.nodes, nd)
	return nodeID(len(c.nodes) - 1)
}

// points returns the node's pointList. The slices are valid until the next
// insertion anywhere in the CDS.
func (c *CDS) points(id nodeID) ([]int64, []uint32) {
	nd := &c.nodes[id]
	return c.vals[nd.off : nd.off+nd.n], c.meta[nd.off : nd.off+nd.n]
}

// allocBlock returns the offset of a block of the given class: the most
// recently abandoned one, else fresh slab.
func (c *CDS) allocBlock(class int8) int32 {
	if off := c.freeBlock[class]; off >= 0 {
		c.freeBlock[class] = int32(c.vals[off])
		return off
	}
	off, size := len(c.vals), minBlock<<class
	if off+size > math.MaxInt32 {
		panic("minesweeper: CDS pointList slab exceeds 2^31 entries")
	}
	c.vals = append(c.vals, make([]int64, size)...)
	c.meta = append(c.meta, make([]uint32, size)...)
	return int32(off)
}

func (c *CDS) releaseBlock(off int32, class int8) {
	if class < 0 {
		return
	}
	c.vals[off] = int64(c.freeBlock[class])
	c.freeBlock[class] = off
}

// moveBlock moves the node's points into a block of the given class and
// abandons the old block.
func (c *CDS) moveBlock(id nodeID, class int8) {
	off := c.allocBlock(class)
	nd := &c.nodes[id]
	copy(c.vals[off:], c.vals[nd.off:nd.off+nd.n])
	copy(c.meta[off:], c.meta[nd.off:nd.off+nd.n])
	c.releaseBlock(nd.off, nd.class)
	nd.off, nd.class = off, class
}

// insertPoint places (v, m) at index i of the node's pointList.
func (c *CDS) insertPoint(id nodeID, i int, v int64, m uint32) {
	nd := &c.nodes[id]
	if nd.class < 0 || int(nd.n) == minBlock<<nd.class {
		c.moveBlock(id, nd.class+1)
	}
	nd.n++
	vals, meta := c.points(id)
	copy(vals[i+1:], vals[i:])
	copy(meta[i+1:], meta[i:])
	vals[i], meta[i] = v, m
}

// freeSubtree returns every node and block below and including id to the
// free lists.
func (c *CDS) freeSubtree(id nodeID) {
	st := append(c.stack[:0], id)
	for len(st) > 0 {
		id := st[len(st)-1]
		st = st[:len(st)-1]
		nd := &c.nodes[id]
		if nd.star != 0 {
			st = append(st, nd.star)
		}
		for _, m := range c.meta[nd.off : nd.off+nd.n] {
			if ch := m >> childShift; ch != 0 {
				st = append(st, nodeID(ch))
			}
		}
		c.releaseBlock(nd.off, nd.class)
		nd.parent = c.freeNode
		c.freeNode = id
	}
	c.stack = st
}

// find returns the index of the first point with value >= v. It starts at
// the node's finger and gallops outward, so a query next to the previous
// one costs a comparison or two and any query O(log distance).
func (c *CDS) find(id nodeID, v int64) int {
	nd := &c.nodes[id]
	vals := c.vals[nd.off : nd.off+nd.n]
	// The answer lies in (lo, hi]: vals[lo] < v (or lo == -1) and
	// vals[hi] >= v (or hi == len(vals)).
	lo, hi := -1, len(vals)
	if f := int(nd.finger); f < hi && vals[f] < v {
		lo = f
		for step := 1; ; step <<= 1 {
			p := lo + step
			if p >= len(vals) {
				break
			}
			if vals[p] >= v {
				hi = p
				break
			}
			lo = p
		}
	} else {
		if f < hi {
			hi = f
		}
		for step := 1; ; step <<= 1 {
			p := hi - step
			if p < 0 {
				break
			}
			if vals[p] < v {
				lo = p
				break
			}
			hi = p
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	nd.finger = int32(hi)
	return hi
}

// next returns the least value y >= x not covered by the node's intervals
// (v.Next from §4.3). Interval endpoints themselves are not covered (open
// intervals).
func (c *CDS) next(id nodeID, x int64) int64 {
	i := c.find(id, x)
	vals, meta := c.points(id)
	if i < len(vals) && vals[i] == x {
		return x
	}
	if i > 0 && meta[i-1]&flagL != 0 {
		// x lies strictly inside the interval opened at point i-1, which by
		// the invariant closes at point i.
		return vals[i]
	}
	return x
}

// covered reports whether x lies strictly inside one of the node's intervals.
func (c *CDS) covered(id nodeID, x int64) bool { return c.next(id, x) != x }

// hasNoFreeValue reports whether the node's intervals cover the entire value
// domain (§4.3: "v.Next(−1) = +∞, i.e. all values in N are covered").
// Attribute values are natural numbers (relation.Builder enforces >= 0), so
// covering everything from -1 upward rules the whole axis out. It is asked
// after every free-value step, so it scans from the front — only -inf and -2
// ever lie below -1 — and leaves the finger at the frontier.
func (c *CDS) hasNoFreeValue(id nodeID) bool {
	vals, meta := c.points(id)
	i := 0
	for i < len(vals) && vals[i] < -1 {
		i++
	}
	return i > 0 && i < len(vals) && vals[i] >= posInf && meta[i-1]&flagL != 0
}

// childAt returns the child along the value edge labeled v, or 0.
func (c *CDS) childAt(id nodeID, v int64) nodeID {
	i := c.find(id, v)
	vals, meta := c.points(id)
	if i < len(vals) && vals[i] == v {
		return nodeID(meta[i] >> childShift)
	}
	return 0
}

// ensureChild returns the child along the value edge labeled v, creating the
// point and node as needed. The caller must ensure v is not covered.
func (c *CDS) ensureChild(id nodeID, v int64) nodeID {
	i := c.find(id, v)
	vals, meta := c.points(id)
	if i < len(vals) && vals[i] == v {
		if ch := meta[i] >> childShift; ch != 0 {
			return nodeID(ch)
		}
	} else {
		c.insertPoint(id, i, v, 0)
	}
	ch := c.newNode(id, v, true)
	c.meta[int(c.nodes[id].off)+i] |= uint32(ch) << childShift
	return ch
}

// ensureStar returns the star child, creating it as needed.
func (c *CDS) ensureStar(id nodeID) nodeID {
	if s := c.nodes[id].star; s != 0 {
		return s
	}
	s := c.newNode(id, 0, false)
	c.nodes[id].star = s
	return s
}

// insertInterval inserts the open interval (l, r), merging with overlapping
// intervals and deleting interior points (whose child subtrees die with
// them). Intervals covering no integer are ignored.
func (c *CDS) insertInterval(id nodeID, l, r int64) {
	if r <= l+1 {
		return
	}
	// New coverage changes the node's free values, and the points it deletes
	// take their subtrees — possibly active ones — with them.
	c.lower(int(c.nodes[id].depth))
	c.nodes[id].hasIntervals = true
	vals, meta := c.points(id)
	// Find where l and r sit or belong. An endpoint strictly inside an
	// existing interval widens to that interval's own endpoint: by the
	// invariant the interval opened at point i-1 closes exactly at point i.
	i := c.find(id, l)
	hasL := i < len(vals) && vals[i] == l
	if !hasL && i > 0 && meta[i-1]&flagL != 0 {
		i--
		hasL = true
	}
	j := c.find(id, r)
	hasR := j < len(vals) && vals[j] == r
	if !hasR && j > 0 && meta[j-1]&flagL != 0 {
		r, hasR = vals[j], true
	}
	// Delete the points strictly inside (l, r); r then directly follows l.
	lo := i
	if hasL {
		lo++
	}
	if lo < j {
		for _, m := range meta[lo:j] {
			if ch := m >> childShift; ch != 0 {
				c.freeSubtree(nodeID(ch))
			}
		}
		copy(vals[lo:], vals[j:])
		copy(meta[lo:], meta[j:])
		c.nodes[id].n -= int32(j - lo)
	}
	// Materialize the endpoints with their flags.
	if hasL {
		meta[i] |= flagL
	} else {
		c.insertPoint(id, i, l, flagL)
	}
	if hasR {
		c.meta[int(c.nodes[id].off)+i+1] |= flagR
	} else {
		c.insertPoint(id, i+1, r, flagR)
	}
	nd := &c.nodes[id]
	nd.finger = int32(i + 1)
	// A list that collapsed to under a quarter of its block gives half back.
	if nd.class > 0 && int(nd.n) <= minBlock<<nd.class/4 {
		c.moveBlock(id, nd.class-1)
	}
}

// Frontier exposes the current frontier; ComputeFreeTuple leaves the free
// tuple here. Callers read it and change it only through SetFrontier,
// AdvancePast and AdvanceOutput, which keep the resume watermark honest.
func (c *CDS) Frontier() []int64 { return c.t }

// SetFrontier replaces the frontier (Idea 7 frontier advances, the §4.10
// range start). Values below the new frontier are the caller's assertion
// that no unreported output remains there.
func (c *CDS) SetFrontier(t []int64) {
	for p := range c.t {
		if c.t[p] != t[p] {
			c.lower(p)
			copy(c.t[p:], t[p:])
			return
		}
	}
}

// AdvancePast moves the frontier to the first tuple after the subtree of the
// current prefix t[0..d] — the caller's assertion that the subtree holds no
// unreported output.
func (c *CDS) AdvancePast(d int) {
	c.t[d]++
	c.resetBelow(d)
	c.lower(d)
}

// AdvanceOutput moves the frontier just past the reported output tuple
// (Idea 2: no unit gap box is inserted).
func (c *CDS) AdvanceOutput() { c.AdvancePast(c.n - 1) }

// Steps returns the number of free-value iterations so far.
func (c *CDS) Steps() int { return c.steps }

// InsConstraint inserts a gap-box constraint (§4.3). Constraints subsumed by
// existing coverage along their pattern path are dropped.
func (c *CDS) InsConstraint(con Constraint) {
	id := rootID
	ei := 0
	for d := 0; d < con.Col; d++ {
		if ei < len(con.EqPos) && con.EqPos[ei] == d {
			v := con.EqVal[ei]
			ei++
			if c.covered(id, v) {
				return // subsumed: the whole branch is already ruled out
			}
			id = c.ensureChild(id, v)
		} else {
			id = c.ensureStar(id)
		}
	}
	c.insertInterval(id, con.Lo, con.Hi)
}

// ComputeFreeTuple advances the frontier to the next tuple >= the current
// frontier (lexicographically) that is not covered by any stored constraint
// (Algorithm 4, restructured so that this routine owns all depth and
// frontier mutations). It returns false when the space is exhausted.
//
// The search does not restart at the root: the previous free tuple is still
// free and its active sets still current above the resume watermark, so it
// starts there (the moving frontier of Idea 2, made incremental).
func (c *CDS) ComputeFreeTuple() bool {
	if c.done {
		return false
	}
	d := min(c.resume, c.n-1)
	for {
		c.steps++
		if c.tick != nil {
			if err := c.tick.Tick(); err != nil {
				c.Err = err
				return false
			}
		}
		x := c.t[d]
		y, killDepth, dead := c.freeValue(d, x)
		// From here the search passes through every depth from d down to the
		// last before it returns, recomputing free values and active sets, so
		// it absorbs any staleness at d or deeper — including the intervals
		// freeValue just cached at d. What stays stale is what freeValue did
		// above d: a truncation (the search goes there next) or nodes
		// ensureSpec created on the prefix, which the next call must pick up.
		if c.resume >= d {
			c.resume = c.n
		}
		if dead {
			// truncate already inserted the kill interval (Algorithm 6).
			if killDepth < 0 {
				c.done = true
				return false
			}
			d = killDepth
			continue
		}
		if y >= posInf {
			// This depth is exhausted for the current prefix: backtrack.
			d--
			if d < 0 {
				c.done = true
				return false
			}
			c.AdvancePast(d)
			continue
		}
		if y != x {
			c.t[d] = y
			c.resetBelow(d)
		}
		if d == c.n-1 {
			return true
		}
		c.computeActives(d + 1)
		d++
	}
}

func (c *CDS) resetBelow(d int) {
	for i := d + 1; i < c.n; i++ {
		c.t[i] = -1
	}
}

// computeActives fills actives[d] with the children of actives[d-1] along
// the t[d-1] value edge and the star edge, most-specialized first.
func (c *CDS) computeActives(d int) {
	next := c.actives[d][:0]
	v := c.t[d-1]
	for _, id := range c.actives[d-1] {
		if ch := c.childAt(id, v); ch != 0 {
			next = append(next, ch)
		}
		if s := c.nodes[id].star; s != 0 {
			next = append(next, s)
		}
	}
	// Stable insertion sort on the number of equalities, descending. The
	// parents are in that order already, so the list arrives nearly sorted.
	for i := 1; i < len(next); i++ {
		id := next[i]
		p := bits.OnesCount64(c.nodes[id].eqMask)
		j := i
		for ; j > 0 && bits.OnesCount64(c.nodes[next[j-1]].eqMask) < p; j-- {
			next[j] = next[j-1]
		}
		next[j] = id
	}
	c.actives[d] = next
}

// freeValue returns the least value y >= x at depth d consistent with every
// active node (Algorithm 5). When the chain bottom's intervals cover the
// whole domain it truncates (Algorithm 6) and returns dead == true with the
// depth to resume at (-1 when the whole space is dead).
func (c *CDS) freeValue(d int, x int64) (y int64, killDepth int, dead bool) {
	// The principal filter G_d: interval-bearing active nodes only (§4.7).
	// Interval-less path nodes (created on the way to deeper constraints)
	// contribute nothing to Next and would break the chain's nestedness.
	g := c.chain[:0]
	for _, id := range c.actives[d] {
		if c.nodes[id].hasIntervals {
			g = append(g, id)
		}
	}
	c.chain = g
	if len(g) == 0 {
		return x, 0, false
	}
	if c.nested(g) {
		u := g[0]
		y = c.freeVal(g, x)
		if c.hasNoFreeValue(u) {
			killDepth, dead = c.truncate(u)
			return y, killDepth, dead
		}
		return y, 0, false
	}
	// Non-chain filter (β-cyclic query without the Idea 7 skeleton, §4.8):
	// compute the merged free value without per-level caching and cache the
	// union coverage into a specialization branch — a node whose pattern
	// combines every chain node's equalities under the current prefix. This
	// is the paper's "specialization branches have to be inserted into the
	// CDS to cache the computation", and its cost is exactly why Idea 7
	// exists.
	y = c.fixpoint(g, x)
	var mask uint64
	for _, w := range g {
		mask |= c.nodes[w].eqMask
	}
	if spec := c.ensureSpec(d, mask); spec != 0 {
		if y > x {
			c.insertInterval(spec, x-1, y)
		}
		if c.hasNoFreeValue(spec) {
			killDepth, dead = c.truncate(spec)
			return y, killDepth, dead
		}
	}
	return y, 0, false
}

// nested reports whether the popcount-sorted filter forms a specialization
// chain (each node's equalities contain the next node's).
func (c *CDS) nested(g []nodeID) bool {
	for i := 0; i+1 < len(g); i++ {
		if c.nodes[g[i+1]].eqMask&^c.nodes[g[i]].eqMask != 0 {
			return false
		}
	}
	return true
}

// ensureSpec finds or creates the depth-d specialization node whose pattern
// has the current frontier's values at the positions in mask and stars
// elsewhere. It returns 0 when the branch is already ruled out.
func (c *CDS) ensureSpec(d int, mask uint64) nodeID {
	id := rootID
	for p := 0; p < d; p++ {
		if mask&(1<<uint(p)) != 0 {
			v := c.t[p]
			if c.covered(id, v) {
				return 0
			}
			id = c.ensureChild(id, v)
		} else {
			id = c.ensureStar(id)
		}
	}
	return id
}

// freeVal is the ping-pong of Algorithm 5 on the chain suffix g, caching the
// discovered coverage into the chain bottom (Idea 5) when every other node
// generalizes it (always true under the chain condition; the guard keeps
// non-chain fallbacks sound).
func (c *CDS) freeVal(g []nodeID, x int64) int64 {
	if len(g) == 0 {
		return x
	}
	u := g[0]
	cacheOK := true
	for _, w := range g[1:] {
		if c.nodes[w].eqMask&^c.nodes[u].eqMask != 0 {
			cacheOK = false
			break
		}
	}
	y := x
	for {
		y = c.next(u, y)
		z := c.freeVal(g[1:], y)
		if z == y {
			break
		}
		y = z
	}
	if cacheOK && y > x {
		c.insertInterval(u, x-1, y)
	}
	return y
}

// fixpoint computes the merged free value of a non-chain filter without
// mutating any node.
func (c *CDS) fixpoint(g []nodeID, x int64) int64 {
	y := x
	for {
		z := y
		for _, w := range g {
			z = c.next(w, z)
		}
		if z == y {
			return y
		}
		y = z
	}
}

// truncate implements Algorithm 6: walk up from the dead node to the first
// value-labeled edge and rule that branch out; star edges propagate the
// deadness upward. dead is always true; killDepth is the depth whose value
// was killed, -1 when the whole space is covered.
func (c *CDS) truncate(id nodeID) (killDepth int, dead bool) {
	for {
		u := &c.nodes[id]
		if u.parent == 0 {
			return -1, true
		}
		if u.edgeIsVal {
			killDepth = int(u.depth) - 1
			c.insertInterval(u.parent, u.edgeVal-1, u.edgeVal+1)
			return killDepth, true
		}
		id = u.parent
	}
}
