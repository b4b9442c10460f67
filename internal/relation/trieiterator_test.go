package relation

// TrieIterator is the cursor oracle the access-path tests compare CSRCursor
// and OverlayCursor against. It presents a sorted relation as a trie, the
// interface Leapfrog Triejoin is defined against (paper §2.2 and [15]): at
// depth d it iterates the distinct values of column d among rows sharing the
// currently selected prefix, in increasing order, and supports seeking the
// least key >= a bound.
//
// The iterator starts at the virtual root (depth -1 in trie terms). Open
// descends to the first key of the next level, Up pops back. Key, Next, Seek
// and AtEnd act on the current level. Calling Next or Seek at the end of a
// level is a no-op; callers check AtEnd.
type TrieIterator struct {
	r *Relation
	// depth is the number of opened levels; the current level's column is
	// depth-1. depth==0 means the iterator is at the root.
	depth int
	lo    []int // per opened level: start of parent range
	hi    []int // per opened level: end of parent range
	pos   []int // per opened level: current row
}

// NewTrieIterator returns an iterator positioned at the root of r's trie.
func NewTrieIterator(r *Relation) *TrieIterator {
	return &TrieIterator{
		r:   r,
		lo:  make([]int, 0, r.arity),
		hi:  make([]int, 0, r.arity),
		pos: make([]int, 0, r.arity),
	}
}

// Relation returns the underlying relation.
func (it *TrieIterator) Relation() *Relation { return it.r }

// Depth returns the number of currently opened levels.
func (it *TrieIterator) Depth() int { return it.depth }

// Open descends one level, positioning at the first key below the current
// position. It panics if already at full depth. Opening below an at-end
// level is not allowed.
func (it *TrieIterator) Open() {
	if it.depth == it.r.arity {
		panic("relation: TrieIterator.Open below leaf level")
	}
	var lo, hi int
	if it.depth == 0 {
		lo, hi = 0, it.r.n
	} else {
		if it.AtEnd() {
			panic("relation: TrieIterator.Open at end of level")
		}
		cur := it.depth - 1
		lo = it.pos[cur]
		hi = it.r.upperBound(cur, lo, it.hi[cur], it.key(cur))
	}
	it.lo = append(it.lo, lo)
	it.hi = append(it.hi, hi)
	it.pos = append(it.pos, lo)
	it.depth++
}

// Up pops back to the previous level. It panics at the root.
func (it *TrieIterator) Up() {
	if it.depth == 0 {
		panic("relation: TrieIterator.Up at root")
	}
	it.depth--
	it.lo = it.lo[:it.depth]
	it.hi = it.hi[:it.depth]
	it.pos = it.pos[:it.depth]
}

// AtEnd reports whether the current level is exhausted.
func (it *TrieIterator) AtEnd() bool {
	cur := it.depth - 1
	return it.pos[cur] >= it.hi[cur]
}

// Key returns the current key at the current level.
func (it *TrieIterator) Key() int64 {
	return it.key(it.depth - 1)
}

func (it *TrieIterator) key(level int) int64 {
	return it.r.rows[it.pos[level]*it.r.arity+level]
}

// Next advances to the next distinct key at the current level.
func (it *TrieIterator) Next() {
	cur := it.depth - 1
	if it.pos[cur] >= it.hi[cur] {
		return
	}
	it.pos[cur] = it.r.upperBound(cur, it.pos[cur], it.hi[cur], it.key(cur))
}

// SeekGE positions at the least key >= v at the current level. Seeking
// backwards is a no-op (keys are visited in increasing order).
func (it *TrieIterator) SeekGE(v int64) {
	cur := it.depth - 1
	if it.pos[cur] >= it.hi[cur] || it.key(cur) >= v {
		return
	}
	it.pos[cur] = it.r.lowerBound(cur, it.pos[cur], it.hi[cur], v)
}

// ProbeGap is the gap-probe oracle the CSR trie's and the overlay's
// ProbeGap are tested against: seekGap (Algorithm 3, see CSRTrie.ProbeGap)
// by binary searches over the flat sorted rows.
func (r *Relation) ProbeGap(point []int64) (gap Gap, found bool) {
	if len(point) != r.arity {
		panic("relation: ProbeGap point length mismatch")
	}
	lo, hi := 0, r.n
	for col := 0; col < r.arity; col++ {
		v := point[col]
		pos := r.lowerBound(col, lo, hi, v)
		if pos < hi && r.Value(pos, col) == v {
			lo = pos
			hi = r.upperBound(col, pos, hi, v)
			continue
		}
		g := Gap{Col: col, Lo: NegInf, Hi: PosInf}
		if pos > lo {
			g.Lo = r.Value(pos-1, col)
		}
		if pos < hi {
			g.Hi = r.Value(pos, col)
		}
		return g, false
	}
	return Gap{}, true
}
