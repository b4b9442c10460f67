package core

import "slices"

// The count memo both engines share (ARCHITECTURE.md, "Count-memo
// soundness"): ctx(d), what the count of the subtree below a prefix
// (t_0..t_d) depends on, and the table that stores those counts.

// MaxPooledFrame bounds the bytes an engine's pooled execution frame may
// keep: a run that grew its slabs or memo tables past it returns them to
// the collector instead of pinning them for the next, probably smaller,
// run.
const MaxPooledFrame = 16 << 20

// Ctx holds, for every depth d of a run over atoms, the ascending positions
//
//	ctx(d) = ⋃ { vars(R) ∩ GAO[0..d] : atom R has a variable after d }
//
// plus d itself when Reset is asked for it, back to back: depth d's are
// pos[end[d]:end[d+1]]. Reset keeps the storage.
type Ctx struct{ pos, end []int }

// Reset computes ctx(d) for d in 0..n-1 over atoms, with d in ctx(d) when
// self.
func (c *Ctx) Reset(atoms []AtomIndex, n int, self bool) {
	c.pos, c.end = c.pos[:0], append(c.end[:0], 0)
	for d := 0; d < n; d++ {
		for p := 0; p <= d; p++ {
			in := self && p == d
			for _, a := range atoms {
				for _, ap := range a.VarPos {
					in = in || ap == p && a.VarPos[len(a.VarPos)-1] > d
				}
			}
			if in {
				c.pos = append(c.pos, p)
			}
		}
		c.end = append(c.end, len(c.pos))
	}
}

// At returns ctx(d).
func (c *Ctx) At(d int) []int { return c.pos[c.end[d]:c.end[d+1]] }

// countMemo returns, for a plan LFTJ counts, the position keying each
// depth's subtree-count memo, or -1 for a depth that keeps none; nil when
// none does or the plan is another engine's. Depth d memoises when d >= 1 and ctx(d) is one position (paths,
// trees, combs and lollipops; no cycle or clique), rows are full bindings
// with no group sink, no residual is decided below d (it could read a prefix
// position outside ctx(d)), and the subtree below d is more than a last
// level one atom binds, which a count sizes as a span in one lookup.
func countMemo(p *Plan) []int {
	atoms, push, n := p.Atoms, p.Push, len(p.GAO)
	if p.Algorithm != "lftj" || push.Buffered() || push.EmitDepth(n) != n {
		return nil
	}
	from := 1 // no residual is decided below from
	if push != nil && len(push.Residuals) > 0 {
		from = max(from, push.Residuals[len(push.Residuals)-1].Depth)
	}
	last := 0 // the members of the last level's leapfrog
	for _, a := range atoms {
		for _, p := range a.VarPos {
			if p == n-1 {
				last++
			}
		}
	}
	var ctx Ctx
	ctx.Reset(atoms, n, false)
	memo, kept := slices.Repeat([]int{-1}, n), false
	for d := from; d < n-1; d++ {
		if k := ctx.At(d); len(k) == 1 && (d < n-2 || last > 1) {
			memo[d], kept = k[0], true
		}
	}
	if !kept {
		return nil
	}
	return memo
}

// MemoTable is one depth's count memo: an open-addressing table from the
// values of a tuple at fixed positions to a subtree count. The keys are
// fixed-width runs of int64 and are compared in full; the hash only picks
// the slot. Reset empties it and keeps its storage.
type MemoTable struct {
	width  int
	keys   []int64 // entry e's key is keys[e*width : (e+1)*width]
	counts []int64 // entry e's subtree count
	slots  []int32 // entry+1, or 0 for an empty slot; a power of two long
}

const memoMinSlots = 16

// Reset empties the table for keys of width values.
func (m *MemoTable) Reset(width int) {
	m.width = width
	m.keys, m.counts = m.keys[:0], m.counts[:0]
	m.resize(memoMinSlots)
}

// MemoBytes is the number of bytes the tables of a frame keep allocated,
// their spare capacity included.
func MemoBytes(tables []MemoTable) int {
	n := 0
	for _, m := range tables[:cap(tables)] {
		n += (cap(m.keys)+cap(m.counts))*8 + cap(m.slots)*4
	}
	return n
}

// resize empties the slot array at the given length, reusing its storage.
func (m *MemoTable) resize(n int) {
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
func (m *MemoTable) find(pos []int, t []int64) (entry, slot int) {
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

// Get returns the count stored under the key t[pos[0]], t[pos[1]], ....
func (m *MemoTable) Get(pos []int, t []int64) (int64, bool) {
	if e, _ := m.find(pos, t); e >= 0 {
		return m.counts[e], true
	}
	return 0, false
}

// Put stores count under the key t[pos[0]], t[pos[1]], ....
func (m *MemoTable) Put(pos []int, t []int64, count int64) {
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
func (m *MemoTable) rehash(n int) {
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
