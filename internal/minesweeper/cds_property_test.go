package minesweeper

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// TestFreeTupleEnumerationOracle checks the CDS against a brute-force
// oracle: after inserting random gap-box constraints over a small domain
// (plus upper-bound constraints so enumeration terminates), advancing
// through ComputeFreeTuple must visit exactly the tuples not covered by any
// constraint, in lexicographic order. Every instance runs twice on one CDS
// that is recycled through the whole test and once on a fresh one: a finger,
// block or free list that survived reset would show as a different sequence.
func TestFreeTupleEnumerationOracle(t *testing.T) {
	const (
		n      = 3
		maxVal = 6
	)
	recycled := newCDS(n)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cons []Constraint
		// Random gap boxes.
		for k := 0; k < 2+rng.Intn(10); k++ {
			col := rng.Intn(n)
			eqPos := make([]int, 0, col)
			eqVal := make([]int64, 0, col)
			for p := 0; p < col; p++ {
				if rng.Intn(2) == 0 {
					eqPos = append(eqPos, p)
					eqVal = append(eqVal, int64(rng.Intn(maxVal+1)))
				}
			}
			lo := int64(rng.Intn(maxVal+2) - 1)
			hi := lo + int64(rng.Intn(4))
			if rng.Intn(5) == 0 {
				lo = relation.NegInf
			}
			if rng.Intn(5) == 0 {
				hi = relation.PosInf
			}
			cons = append(cons, Constraint{EqPos: eqPos, EqVal: eqVal, Col: col, Lo: lo, Hi: hi})
		}
		// Terminators: everything above maxVal is covered on every axis.
		for d := 0; d < n; d++ {
			cons = append(cons, Constraint{Col: d, Lo: maxVal, Hi: relation.PosInf})
		}

		// Oracle: all tuples over [-1, maxVal]^n not inside any box.
		var want [][3]int64
		var tup [n]int64
		var enumerate func(d int)
		enumerate = func(d int) {
			if d == n {
				for _, con := range cons {
					if boxCovers(con, tup[:]) {
						return
					}
				}
				want = append(want, [3]int64{tup[0], tup[1], tup[2]})
				return
			}
			for v := int64(-1); v <= maxVal; v++ {
				tup[d] = v
				enumerate(d + 1)
			}
		}
		enumerate(0)

		for run := 0; run < 3; run++ {
			c := recycled
			if run == 2 {
				c = newCDS(n)
			} else {
				c.reset(n)
			}
			for _, con := range cons {
				c.InsConstraint(con)
			}
			var got [][3]int64
			for c.ComputeFreeTuple() {
				ft := c.Frontier()
				got = append(got, [3]int64{ft[0], ft[1], ft[2]})
				if len(got) > len(want)+8 {
					return false // runaway enumeration
				}
				c.AdvanceOutput()
			}
			if !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 240}); err != nil {
		t.Error(err)
	}
}

// TestFreeTupleResumeOracle interleaves the CDS mutators with the searches,
// the way the engine does, so ComputeFreeTuple resumes from a watermark that
// random constraint insertions (some creating nodes on the current prefix,
// some deleting points that carry children), forward SetFrontier jumps,
// AdvancePast and AdvanceOutput have lowered. Every tuple it returns must be
// the least tuple >= the frontier that no constraint inserted so far covers,
// and when it returns false no such tuple may exist.
func TestFreeTupleResumeOracle(t *testing.T) {
	const (
		n      = 3
		maxVal = 5
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCDS(n)
		var cons []Constraint
		for d := 0; d < n; d++ {
			cons = append(cons, Constraint{Col: d, Lo: maxVal, Hi: relation.PosInf})
		}
		insert := func(con Constraint) {
			cons = append(cons, con)
			c.InsConstraint(con)
		}
		for _, con := range cons {
			c.InsConstraint(con)
		}
		// leastFree is the brute-force answer: the least uncovered tuple of
		// [-1, maxVal]^n that is >= from.
		leastFree := func(from []int64) ([]int64, bool) {
			var tup [n]int64
			var rec func(d int, tight bool) bool
			rec = func(d int, tight bool) bool {
				if d == n {
					for _, con := range cons {
						if boxCovers(con, tup[:]) {
							return false
						}
					}
					return true
				}
				v := int64(-1)
				if tight {
					v = max(v, from[d])
				}
				for ; v <= maxVal; v++ {
					tup[d] = v
					if rec(d+1, tight && v == from[d]) {
						return true
					}
				}
				return false
			}
			return tup[:], rec(0, true)
		}
		for step := 0; step < 60; step++ {
			from := slices.Clone(c.Frontier())
			want, ok := leastFree(from)
			if got := c.ComputeFreeTuple(); got != ok || ok && !slices.Equal(c.Frontier(), want) {
				t.Logf("seed %d step %d: from %v got (%v, %v), want (%v, %v)", seed, step, from, got, c.Frontier(), ok, want)
				return false
			}
			if !ok {
				return true
			}
			ft := c.Frontier()
			for k := rng.Intn(3); k > 0; k-- {
				switch rng.Intn(5) {
				case 0, 1:
					// A gap box, most often through the free tuple's own
					// prefix, so it creates nodes on the path being resumed.
					col := rng.Intn(n)
					con := Constraint{Col: col, Lo: int64(rng.Intn(maxVal+2) - 2)}
					con.Hi = con.Lo + 2 + int64(rng.Intn(3))
					for p := 0; p < col; p++ {
						if rng.Intn(4) > 0 {
							con.EqPos = append(con.EqPos, p)
							con.EqVal = append(con.EqVal, ft[p])
						}
					}
					insert(con)
				case 2:
					// Cover a prefix value of the free tuple: the point
					// carries the children the deeper boxes created.
					col := rng.Intn(n - 1)
					con := Constraint{Col: col, Lo: ft[col] - 1 - int64(rng.Intn(2)), Hi: ft[col] + 1 + int64(rng.Intn(2))}
					for p := 0; p < col; p++ {
						con.EqPos = append(con.EqPos, p)
						con.EqVal = append(con.EqVal, ft[p])
					}
					insert(con)
				case 3:
					// A forward jump: bump one position, keep the prefix.
					next := slices.Clone(ft)
					p := rng.Intn(n)
					next[p] += 1 + int64(rng.Intn(2))
					for q := p + 1; q < n; q++ {
						next[q] = int64(rng.Intn(maxVal+2) - 1)
					}
					c.SetFrontier(next)
				case 4:
					c.AdvancePast(rng.Intn(n))
				}
			}
			if slices.Equal(c.Frontier(), ft) && rng.Intn(2) == 0 {
				c.AdvanceOutput()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestArenaChurn forces the slabs to grow and the free lists to be used:
// each round plants a few hundred children under the root, grows each
// child's pointList through several size classes, checks the children
// against a reference set, and then kills them all with root intervals that
// delete interior points carrying children. Dead nodes and abandoned blocks
// must come back: after the first round the arena stops growing however long
// the churn goes on, and the recycled memory behaves like fresh memory.
func TestArenaChurn(t *testing.T) {
	const (
		rounds   = 30
		width    = 4096 // root values a round owns
		children = 300
	)
	rng := rand.New(rand.NewSource(8))
	c := newCDS(2)
	var nodesAfterFirst, valsAfterFirst int
	inserts := 0
	for round := 0; round < rounds; round++ {
		base := int64(round) * width
		covered := map[nodeID]map[int64]bool{}
		for k := 0; k < children; k++ {
			ch := c.ensureChild(rootID, base+1+rng.Int63n(width-2))
			if covered[ch] == nil {
				covered[ch] = map[int64]bool{}
			}
			for j := 1 + rng.Intn(24); j > 0; j-- {
				l := rng.Int63n(200)
				r := l + 2 + rng.Int63n(3)
				c.insertInterval(ch, l, r)
				inserts++
				for v := l + 1; v < r; v++ {
					covered[ch][v] = true
				}
			}
		}
		for ch, set := range covered {
			for v := int64(-1); v < 210; v++ {
				if c.covered(ch, v) != set[v] {
					t.Fatalf("round %d: child %d covered(%d) = %v, want %v", round, ch, v, !set[v], set[v])
				}
			}
		}
		// Kill the round's children in 16 bites, in random order, so interior
		// deletion meets children both beside and inside earlier intervals.
		for _, bite := range rng.Perm(16) {
			lo := base + int64(bite)*width/16
			c.insertInterval(rootID, lo, lo+width/16+1)
			inserts++
		}
		if got := c.next(rootID, base+1); got != base+width+1 {
			t.Fatalf("round %d: root next(%d) = %d, want %d", round, base+1, got, base+width+1)
		}
		if vals, _ := c.points(rootID); len(vals) != 2 {
			t.Fatalf("round %d: root pointList = %v, want one merged interval", round, vals)
		}
		if round == 0 {
			nodesAfterFirst, valsAfterFirst = len(c.nodes), len(c.vals)
		}
	}
	if inserts < 5000 {
		t.Fatalf("only %d insertIntervals, the test wants thousands", inserts)
	}
	// Rounds differ in how many points their children draw, so allow the
	// largest round some slack over the first — not 30 rounds' worth.
	if len(c.nodes) > nodesAfterFirst+children/4 || len(c.vals) > 2*valsAfterFirst {
		t.Errorf("arena grew with churn: %d nodes and %d slab entries after %d rounds, %d and %d after the first",
			len(c.nodes), len(c.vals), rounds, nodesAfterFirst, valsAfterFirst)
	}
}

// boxCovers reports whether the constraint's gap box contains the tuple.
func boxCovers(c Constraint, t []int64) bool {
	for i, p := range c.EqPos {
		if t[p] != c.EqVal[i] {
			return false
		}
	}
	v := t[c.Col]
	return v > c.Lo && v < c.Hi
}
