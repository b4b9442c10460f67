package minesweeper

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// newCDS returns an empty CDS for n attributes with frontier (-1, ..., -1).
func newCDS(n int) *CDS {
	c := new(CDS)
	c.reset(n)
	return c
}

// intervals returns the node's interval list.
func (c *CDS) intervals(id nodeID) [][2]int64 {
	var out [][2]int64
	vals, meta := c.points(id)
	for i := range vals {
		if meta[i]&flagL != 0 {
			out = append(out, [2]int64{vals[i], vals[i+1]})
		}
	}
	return out
}

func TestPointListInsertAndNext(t *testing.T) {
	c, nd := newCDS(1), rootID
	c.insertInterval(nd, 5, 7)
	if got := c.intervals(nd); !reflect.DeepEqual(got, [][2]int64{{5, 7}}) {
		t.Fatalf("intervals = %v", got)
	}
	if c.next(nd, 6) != 7 {
		t.Errorf("next(6) = %d, want 7", c.next(nd, 6))
	}
	if c.next(nd, 5) != 5 || c.next(nd, 7) != 7 {
		t.Error("open endpoints must stay free")
	}
	if c.covered(nd, 6) != true || c.covered(nd, 5) != false {
		t.Error("covered wrong on endpoints/interior")
	}
}

// TestPointListPaperExample replays the Figure 2 bottom node v with
// intervals (1,3),(3,9),(10,14): pointList 1(L),3(L&R),9(R),10(L),14(R).
func TestPointListPaperExample(t *testing.T) {
	c, nd := newCDS(1), rootID
	c.insertInterval(nd, 3, 9)
	c.insertInterval(nd, 1, 3)
	c.insertInterval(nd, 10, 14)
	want := [][2]int64{{1, 3}, {3, 9}, {10, 14}}
	if got := c.intervals(nd); !reflect.DeepEqual(got, want) {
		t.Fatalf("intervals = %v, want %v", got, want)
	}
	vals, meta := c.points(nd)
	if len(vals) != 5 {
		t.Fatalf("pointList has %d entries, want 5", len(vals))
	}
	// 3 is both a left and a right endpoint, like the paper's example.
	if vals[1] != 3 || meta[1] != flagL|flagR {
		t.Errorf("point 1 = %d flags %b, want 3 with L&R", vals[1], meta[1])
	}
	if c.next(nd, 2) != 3 || c.next(nd, 4) != 9 || c.next(nd, 11) != 14 || c.next(nd, 9) != 9 {
		t.Error("next over the paper example is wrong")
	}
	// Inserting (2,4) bridges the touching intervals into (1,9).
	c.insertInterval(nd, 2, 4)
	want = [][2]int64{{1, 9}, {10, 14}}
	if got := c.intervals(nd); !reflect.DeepEqual(got, want) {
		t.Fatalf("after merge: intervals = %v, want %v", got, want)
	}
}

func TestInsertIntervalMergesOverlaps(t *testing.T) {
	c, nd := newCDS(1), rootID
	c.insertInterval(nd, 1, 5)
	c.insertInterval(nd, 3, 9)
	if got := c.intervals(nd); !reflect.DeepEqual(got, [][2]int64{{1, 9}}) {
		t.Fatalf("intervals = %v, want [(1,9)]", got)
	}
	c.insertInterval(nd, 0, 20)
	if got := c.intervals(nd); !reflect.DeepEqual(got, [][2]int64{{0, 20}}) {
		t.Fatalf("intervals = %v, want [(0,20)]", got)
	}
}

func TestInsertIntervalEmpty(t *testing.T) {
	c, nd := newCDS(1), rootID
	c.insertInterval(nd, 5, 6) // open (5,6) covers no integer
	c.insertInterval(nd, 5, 5)
	if vals, _ := c.points(nd); len(vals) != 0 {
		t.Errorf("empty intervals must not be stored: %v", vals)
	}
}

func TestInsertIntervalRemovesChildren(t *testing.T) {
	c, nd := newCDS(1), rootID
	c.ensureChild(nd, 5)
	c.ensureChild(nd, 8)
	c.insertInterval(nd, 4, 7) // kills child 5, keeps child 8
	if c.childAt(nd, 5) != 0 {
		t.Error("child 5 should be eliminated by the covering interval")
	}
	if c.childAt(nd, 8) == 0 {
		t.Error("child 8 should survive")
	}
}

func TestChildOnEndpointSurvives(t *testing.T) {
	c, nd := newCDS(1), rootID
	c.ensureChild(nd, 5)
	c.insertInterval(nd, 5, 9) // 5 is an open endpoint: not covered
	if c.childAt(nd, 5) == 0 {
		t.Error("child at the open endpoint must survive")
	}
	if _, meta := c.points(nd); meta[c.find(nd, 5)]&flagL == 0 {
		t.Error("endpoint flag missing on the child point")
	}
}

func TestHasNoFreeValue(t *testing.T) {
	c, nd := newCDS(1), rootID
	if c.hasNoFreeValue(nd) {
		t.Error("fresh node should have free values")
	}
	c.insertInterval(nd, negInf, 5)
	c.insertInterval(nd, 4, posInf)
	if !c.hasNoFreeValue(nd) {
		t.Errorf("(-inf,5)+(4,+inf) should cover everything: %v", c.intervals(nd))
	}
}

// Property: a node's interval set behaves like a reference set of covered
// integers under random inserts.
func TestIntervalSetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, nd := newCDS(1), rootID
		covered := make(map[int64]bool)
		const domain = 40
		for op := 0; op < 30; op++ {
			l := int64(rng.Intn(domain) - 2)
			r := l + int64(rng.Intn(10))
			c.insertInterval(nd, l, r)
			for v := l + 1; v < r; v++ {
				covered[v] = true
			}
			// Validate pointList invariants: sorted, L followed by R.
			vals, meta := c.points(nd)
			for i := 1; i < len(vals); i++ {
				if vals[i-1] >= vals[i] {
					return false
				}
				if meta[i-1]&flagL != 0 && meta[i]&flagR == 0 {
					return false
				}
			}
			if len(vals) > 0 && meta[len(vals)-1]&flagL != 0 {
				return false
			}
		}
		for v := int64(-3); v < domain+10; v++ {
			if c.covered(nd, v) != covered[v] {
				return false
			}
			// next returns the least free value >= v.
			want := v
			for covered[want] {
				want++
			}
			if c.next(nd, v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCDSFigure2 replays the paper's Figure 2 construction and checks the
// tree shape.
func TestCDSFigure2(t *testing.T) {
	c := newCDS(5)
	// <*,*,(5,7),*,*>
	c.InsConstraint(Constraint{Col: 2, Lo: 5, Hi: 7})
	// <*,*,7,*,(4,9)>
	c.InsConstraint(Constraint{EqPos: []int{2}, EqVal: []int64{7}, Col: 4, Lo: 4, Hi: 9})
	// star-star path to depth 2 holds (5,7).
	star := func(id nodeID) nodeID { return c.nodes[id].star }
	n2 := star(star(rootID))
	if got := c.intervals(n2); !reflect.DeepEqual(got, [][2]int64{{5, 7}}) {
		t.Fatalf("depth-2 node intervals = %v", got)
	}
	// the 7-child path holds (4,9) at depth 4.
	n4 := star(c.childAt(n2, 7))
	if n4 == 0 {
		t.Fatal("missing <*,*,7,*> node")
	}
	if got := c.intervals(n4); !reflect.DeepEqual(got, [][2]int64{{4, 9}}) {
		t.Fatalf("depth-4 node intervals = %v", got)
	}
	// Further constraints from the figure.
	c.InsConstraint(Constraint{EqPos: []int{1}, EqVal: []int64{1}, Col: 2, Lo: 1, Hi: 3})
	c.InsConstraint(Constraint{EqPos: []int{1}, EqVal: []int64{1}, Col: 2, Lo: 9, Hi: 10})
	c.InsConstraint(Constraint{EqPos: []int{1, 2}, EqVal: []int64{1, 2}, Col: 3, Lo: 10, Hi: 19})
	c.InsConstraint(Constraint{EqPos: []int{1, 2, 3}, EqVal: []int64{1, 3, 5}, Col: 4, Lo: 3, Hi: 9})
	c.InsConstraint(Constraint{EqPos: []int{1, 2, 3}, EqVal: []int64{1, 3, 5}, Col: 4, Lo: 1, Hi: 3})
	c.InsConstraint(Constraint{EqPos: []int{1, 2, 3}, EqVal: []int64{1, 3, 5}, Col: 4, Lo: 10, Hi: 14})
	c.InsConstraint(Constraint{EqPos: []int{1, 2}, EqVal: []int64{1, 3}, Col: 4, Lo: 5, Hi: 10})
	n13 := c.childAt(c.childAt(star(rootID), 1), 3)
	v := c.childAt(n13, 5)
	if v == 0 {
		t.Fatal("missing <*,1,3,5> node")
	}
	want := [][2]int64{{1, 3}, {3, 9}, {10, 14}}
	if got := c.intervals(v); !reflect.DeepEqual(got, want) {
		t.Fatalf("<*,1,3,5> intervals = %v, want %v", got, want)
	}
	w := star(n13)
	if w == 0 || !reflect.DeepEqual(c.intervals(w), [][2]int64{{5, 10}}) {
		t.Fatalf("<*,1,3,*> node wrong: %v", c.intervals(w))
	}
}

func TestConstraintSubsumption(t *testing.T) {
	c := newCDS(3)
	c.InsConstraint(Constraint{Col: 0, Lo: 2, Hi: 9})
	// A constraint whose pattern value 5 is covered at the root is subsumed.
	c.InsConstraint(Constraint{EqPos: []int{0}, EqVal: []int64{5}, Col: 1, Lo: 0, Hi: 100})
	if c.childAt(rootID, 5) != 0 {
		t.Error("subsumed constraint should not create a branch")
	}
}

// TestComputeFreeTupleSimple: one attribute, gaps carve the domain.
func TestComputeFreeTupleSimple(t *testing.T) {
	c := newCDS(1)
	c.InsConstraint(Constraint{Col: 0, Lo: negInf, Hi: 3})
	if !c.ComputeFreeTuple() {
		t.Fatal("expected a free tuple")
	}
	if c.Frontier()[0] != 3 {
		t.Fatalf("free tuple = %v, want [3]", c.Frontier())
	}
	c.AdvanceOutput()
	c.InsConstraint(Constraint{Col: 0, Lo: 3, Hi: posInf})
	if c.ComputeFreeTuple() {
		t.Fatalf("space should be exhausted, got %v", c.Frontier())
	}
	if c.ComputeFreeTuple() {
		t.Fatal("done flag should persist")
	}
}

// TestComputeFreeTupleDescends: two attributes with a branch-specific gap.
func TestComputeFreeTupleDescends(t *testing.T) {
	c := newCDS(2)
	// Attribute 0: everything outside {2} is a gap.
	c.InsConstraint(Constraint{Col: 0, Lo: negInf, Hi: 2})
	c.InsConstraint(Constraint{Col: 0, Lo: 2, Hi: posInf})
	// Under 2, attribute 1 has gaps below 7 and above 7.
	c.InsConstraint(Constraint{EqPos: []int{0}, EqVal: []int64{2}, Col: 1, Lo: negInf, Hi: 7})
	if !c.ComputeFreeTuple() {
		t.Fatal("expected a free tuple")
	}
	if !reflect.DeepEqual(c.Frontier(), []int64{2, 7}) {
		t.Fatalf("free tuple = %v, want [2 7]", c.Frontier())
	}
	// Report the output and move past it (Idea 2: no unit gap box needed).
	c.AdvanceOutput()
	c.InsConstraint(Constraint{EqPos: []int{0}, EqVal: []int64{2}, Col: 1, Lo: 7, Hi: posInf})
	if c.ComputeFreeTuple() {
		t.Fatalf("space should be exhausted, got %v", c.Frontier())
	}
}

// TestTruncation: when a branch's subspace is fully covered, the branch
// value itself must be ruled out at the parent (Algorithm 6).
func TestTruncation(t *testing.T) {
	c := newCDS(2)
	// Kill all of attribute 1 under value 4 of attribute 0.
	c.InsConstraint(Constraint{EqPos: []int{0}, EqVal: []int64{4}, Col: 1, Lo: negInf, Hi: posInf})
	// Attribute 0 must skip 4: gaps force candidates {4,9}.
	c.InsConstraint(Constraint{Col: 0, Lo: negInf, Hi: 4})
	c.InsConstraint(Constraint{Col: 0, Lo: 4, Hi: 9})
	c.InsConstraint(Constraint{Col: 0, Lo: 9, Hi: posInf})
	if !c.ComputeFreeTuple() {
		t.Fatal("expected a free tuple")
	}
	if c.Frontier()[0] != 9 {
		t.Fatalf("free tuple = %v, want first coordinate 9 (4 truncated)", c.Frontier())
	}
	// The truncation must have inserted (3,5) at the root.
	if !c.covered(rootID, 4) {
		t.Error("value 4 should be covered at the root after truncation")
	}
}

func TestFrontierMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newCDS(3)
	prev := []int64{negInf, negInf, negInf}
	for i := 0; i < 200 && c.ComputeFreeTuple(); i++ {
		cur := append([]int64(nil), c.Frontier()...)
		if cmp := compare3(prev, cur); cmp > 0 {
			t.Fatalf("frontier went backwards: %v after %v", cur, prev)
		}
		prev = cur
		// Rule the current tuple out with a random-width gap on a random
		// suffix position.
		p := rng.Intn(3)
		c.InsConstraint(Constraint{
			EqPos: []int{0, 1}[:p],
			EqVal: cur[:p],
			Col:   p,
			Lo:    cur[p] - 1,
			Hi:    cur[p] + 1 + int64(rng.Intn(3)),
		})
	}
}

func compare3(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
