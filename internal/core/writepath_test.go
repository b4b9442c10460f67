package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// tupleSet is the write path's oracle: a plain set of tuples (arity <= 3,
// zero-padded) with the batch semantics spelled out the slow way.
type tupleSet map[[3]int64]struct{}

func setKey(t []int64) (k [3]int64) {
	copy(k[:], t)
	return k
}

// apply lands one raw batch: every delete removes, every insert not also
// deleted in the same batch adds (delete-after-insert).
func (s tupleSet) apply(inserts, deletes [][]int64) {
	deleted := make(tupleSet, len(deletes))
	for _, t := range deletes {
		deleted[setKey(t)] = struct{}{}
		delete(s, setKey(t))
	}
	for _, t := range inserts {
		if _, both := deleted[setKey(t)]; !both {
			s[setKey(t)] = struct{}{}
		}
	}
}

// sorted returns the set's tuples with columns permuted by perm, in
// lexicographic order — what an index over that attribute order holds.
func (s tupleSet) sorted(perm []int) [][]int64 {
	out := make([][]int64, 0, len(s))
	for k := range s {
		t := make([]int64, len(perm))
		for c, p := range perm {
			t[c] = k[p]
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return relation.CompareTuples(out[i], out[j]) < 0 })
	return out
}

func (s tupleSet) clone() tupleSet {
	c := make(tupleSet, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

func sameTuples(got, want [][]int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			return false
		}
	}
	return true
}

// randomBatch draws the hostile mix a caller may send: fresh and present
// tuples on both sides, duplicates within a side, tuples on both sides of
// the batch, and empty sides.
func randomBatch(rng *rand.Rand, arity, domain, size int) (ins, dels [][]int64) {
	draw := func() []int64 {
		t := make([]int64, arity)
		for k := range t {
			t[k] = int64(rng.Intn(domain))
		}
		return t
	}
	side := func() [][]int64 {
		if rng.Intn(8) == 0 {
			return nil
		}
		n := 1 + rng.Intn(size)
		out := make([][]int64, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, draw())
			if rng.Intn(6) == 0 {
				out = append(out, out[rng.Intn(len(out))]) // duplicate
			}
		}
		return out
	}
	ins, dels = side(), side()
	for _, t := range ins {
		if rng.Intn(8) == 0 {
			dels = append(dels, t) // both sides
		}
	}
	return ins, dels
}

// wallOrders are the attribute orders the wall keeps bound per arity.
var wallOrders = map[int][][]int{
	1: {{0}},
	2: {{0, 1}, {1, 0}},
	3: {{0, 1, 2}, {2, 0, 1}, {1, 2, 0}},
}

// wallQuery reads relation r once per order in wallOrders[arity]: under the
// GAO x0 < x1 < ... the atom whose variables are listed in inverse-permuted
// positions binds exactly that order.
func wallQuery(arity int) (*query.Query, []string) {
	gao := make([]string, arity)
	for k := range gao {
		gao[k] = fmt.Sprintf("x%d", k)
	}
	var atoms []query.Atom
	for _, perm := range wallOrders[arity] {
		vars := make([]string, arity)
		for k, p := range perm {
			vars[p] = gao[k]
		}
		atoms = append(atoms, query.Atom{Rel: "r", Vars: vars})
	}
	return query.New("wall", atoms...), gao
}

// checkWriteGeneration compares everything the database serves about "r"
// against the oracle.
func checkWriteGeneration(t *testing.T, db *DB, arity int, bound []*Index, oracle tupleSet, rng *rand.Rand, domain int) {
	t.Helper()
	identity := wallOrders[arity][0]
	want := oracle.sorted(identity)
	r, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(r.Tuples(), want) {
		t.Fatalf("db.Relation: %d tuples, oracle %d (or order differs)", r.Len(), len(want))
	}
	if n, _ := db.Len("r"); n != len(want) {
		t.Fatalf("db.Len = %d, oracle %d", n, len(want))
	}
	if a, _ := db.Arity("r"); a != arity {
		t.Fatalf("db.Arity = %d, want %d", a, arity)
	}
	for i, perm := range wallOrders[arity] {
		if got := collect(t, db.Pin().Overlay(bound[i])); !sameTuples(got, oracle.sorted(perm)) {
			t.Fatalf("cached csr index %v: walk differs from the oracle (%d tuples, oracle %d)", perm, len(got), len(want))
		}
		point := make([]int64, arity)
		for trial := 0; trial < 20; trial++ {
			var k [3]int64
			for c := range point {
				point[c] = int64(rng.Intn(domain + 1))
				k[perm[c]] = point[c]
			}
			_, present := oracle[k]
			if _, found := db.Pin().Overlay(bound[i]).ProbeGap(point); found != present {
				t.Fatalf("cached csr index %v: ProbeGap(%v) found=%v, oracle %v", perm, point, found, present)
			}
		}
	}
	// A plan compiled now binds the advanced indexes, not rebuilt ones.
	q, gao := wallQuery(arity)
	plan, err := NewPlan(q, db, "lftj", gao, nil, false, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, perm := range wallOrders[arity] {
		if plan.Atoms[i].Index != bound[i] {
			t.Fatalf("plan atom %v: bound a rebuilt index instead of the cached one", perm)
		}
	}
}

// TestWritePathDifferential is the write path's wall: random hostile batches
// against relations of arity 1–3 with several attribute orders bound, and
// after every batch the flat view, the metadata, every cached CSR index and
// a lease taken before the batch must all agree with a map-set oracle, and
// a freshly compiled plan must bind the cached indexes. The small cases
// cross the proportional compaction threshold many times; the large one
// crosses the absolute one (overlayCompactMax) while the proportional rule is
// out of reach.
func TestWritePathDifferential(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		arity, domain, base           int
		batches, batchSize, fullEvery int
	}{
		{"arity1", 1, 400, 120, 200, 12, 1},
		{"arity2", 2, 24, 200, 200, 12, 1},
		{"arity3", 3, 7, 150, 200, 12, 1},
		// 80k tuples: a quarter is 20k, beyond the 16 384 absolute threshold.
		{"arity2-large", 2, 420, 80000, 40, 1500, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.base > 10000 && testing.Short() {
				t.Skip("large relation")
			}
			rng := rand.New(rand.NewSource(int64(tc.arity*1000 + tc.base)))
			oracle := tupleSet{}
			b := relation.NewBuilder("r", tc.arity)
			for len(oracle) < tc.base {
				t := make([]int64, tc.arity)
				for k := range t {
					t[k] = int64(rng.Intn(tc.domain))
				}
				if _, dup := oracle[setKey(t)]; !dup {
					oracle[setKey(t)] = struct{}{}
					b.Add(t...)
				}
			}
			db := NewDB()
			db.Add(b.Build())
			var bound []*Index
			for _, perm := range wallOrders[tc.arity] {
				idx, err := db.TrieIndex("r", perm)
				if err != nil {
					t.Fatal(err)
				}
				bound = append(bound, idx)
			}
			compactions := relation.OverlayCompactions()
			maxDepth := 0
			for batch := 0; batch < tc.batches; batch++ {
				lease := db.NewLease()
				before := oracle
				if batch%tc.fullEvery == 0 {
					before = oracle.clone()
				}
				ins, dels := randomBatch(rng, tc.arity, tc.domain, tc.batchSize)
				if err := db.ApplyDelta("r", ins, dels); err != nil {
					t.Fatal(err)
				}
				oracle.apply(ins, dels)
				if n, _ := db.Len("r"); n != len(oracle) {
					t.Fatalf("batch %d: db.Len = %d, oracle %d", batch, n, len(oracle))
				}
				if d := db.OverlayDepth(); d > maxDepth {
					maxDepth = d
				}
				if batch%tc.fullEvery != 0 {
					continue
				}
				checkWriteGeneration(t, db, tc.arity, bound, oracle, rng, tc.domain)
				for i, perm := range wallOrders[tc.arity] {
					if got := collect(t, lease.gen.Load().Overlay(bound[i])); !sameTuples(got, before.sorted(perm)) {
						t.Fatalf("batch %d: lease taken before the batch no longer reads the pre-batch state of index %v", batch, perm)
					}
				}
			}
			if relation.OverlayCompactions() == compactions {
				t.Error("the churn never compacted an overlay")
			}
			// relation.overlayCompactMax is 1<<14 per index; a log compacts
			// with the batch that takes it there.
			if near := len(bound) * (1<<14 - 2*tc.batchSize); tc.base > 10000 && maxDepth < near {
				t.Errorf("largest overlay depth %d, want >= %d: the absolute compaction threshold was never approached", maxDepth, near)
			}
		})
	}
}

// TestCanonicalDelta pins the batch normal form, case by case, against a
// relation still flat (no delta yet) and against one whose canonical
// overlay already carries a pending insert and a pending delete.
func TestCanonicalDelta(t *testing.T) {
	// Contents in both setups: {1,2} {2,3} {3,4} {7,7}.
	flat := func() *DB {
		db := NewDB()
		db.Add(relation.FromTuples("e", 2, [][]int64{{1, 2}, {2, 3}, {3, 4}, {7, 7}}))
		return db
	}
	overlaid := func() *DB {
		db := NewDB()
		db.Add(relation.FromTuples("e", 2, [][]int64{{1, 2}, {2, 3}, {3, 4}, {5, 5}}))
		if err := db.ApplyDelta("e", [][]int64{{7, 7}}, [][]int64{{5, 5}}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, tc := range []struct {
		name              string
		inserts, deletes  [][]int64
		wantIns, wantDels [][]int64
	}{
		{"absent insert lands", [][]int64{{9, 9}}, nil, [][]int64{{9, 9}}, nil},
		{"present insert is ignored", [][]int64{{1, 2}, {7, 7}}, nil, nil, nil},
		{"present delete lands", nil, [][]int64{{2, 3}, {7, 7}}, nil, [][]int64{{2, 3}, {7, 7}}},
		{"absent delete is ignored", nil, [][]int64{{4, 4}, {5, 5}}, nil, nil},
		{"both sides, absent: stays absent", [][]int64{{9, 9}}, [][]int64{{9, 9}}, nil, nil},
		{"both sides, present: deleted", [][]int64{{3, 4}}, [][]int64{{3, 4}}, nil, [][]int64{{3, 4}}},
		{"duplicates collapse, output is sorted",
			[][]int64{{9, 1}, {8, 1}, {9, 1}}, [][]int64{{3, 4}, {1, 2}, {3, 4}},
			[][]int64{{8, 1}, {9, 1}}, [][]int64{{1, 2}, {3, 4}}},
		{"wrong arity and out-of-domain deletes are skipped",
			[][]int64{{1}, {6, 6}}, [][]int64{{1, 2, 3}, {-1, 2}, {1, 2}},
			[][]int64{{6, 6}}, [][]int64{{1, 2}}},
		{"empty batch", nil, nil, nil, nil},
	} {
		for setup, mk := range map[string]func() *DB{"flat": flat, "overlaid": overlaid} {
			db := mk()
			db.mu.Lock()
			st := db.rels["e"]
			insRel, delsRel := st.canonicalDelta("e", db.canonLocked(st), tc.inserts, tc.deletes)
			db.mu.Unlock()
			ins, dels := insRel.Tuples(), delsRel.Tuples()
			if !sameTuples(ins, tc.wantIns) || !sameTuples(dels, tc.wantDels) {
				t.Errorf("%s (%s): got +%v -%v, want +%v -%v", tc.name, setup, ins, dels, tc.wantIns, tc.wantDels)
			}
			// ApplyDelta lands exactly the canonical delta.
			r, _ := db.Relation("e")
			want := tupleSet{}
			for _, tp := range r.Tuples() {
				want[setKey(tp)] = struct{}{}
			}
			want.apply(filterArity(tc.inserts, 2), filterArity(tc.deletes, 2))
			if err := db.ApplyDelta("e", tc.inserts, tc.deletes); err != nil {
				t.Fatal(err)
			}
			r, _ = db.Relation("e")
			if !sameTuples(r.Tuples(), want.sorted([]int{0, 1})) {
				t.Errorf("%s (%s): ApplyDelta left %v", tc.name, setup, r.Tuples())
			}
		}
	}
	if err := NewDB().ApplyDelta("missing", nil, nil); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("ApplyDelta on an unknown relation: %v, want ErrUnknownRelation", err)
	}
}

// filterArity drops tuples the oracle's fixed-width key cannot tell apart
// from their zero-padded form.
func filterArity(tuples [][]int64, arity int) [][]int64 {
	var out [][]int64
	for _, t := range tuples {
		if len(t) == arity {
			out = append(out, t)
		}
	}
	return out
}

// TestFlatViewLifetime: the flat view is merged from the canonical overlay
// on request and kept nowhere, so every call after a write sees it; a
// snapshot captures overlays without merging and reads the contents they
// held when captured.
func TestFlatViewLifetime(t *testing.T) {
	db := deltaDB()
	if err := db.ApplyDelta("edge", [][]int64{{9, 9}}, nil); err != nil {
		t.Fatal(err)
	}
	v1, _ := db.Relation("edge")
	if v1.Len() != 6 || !v1.Contains([]int64{9, 9}) {
		t.Errorf("flat view %v misses the delta", v1)
	}
	if err := db.ApplyDelta("edge", nil, [][]int64{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	if v2, _ := db.Relation("edge"); v2.Len() != 5 || v2.Contains([]int64{9, 9}) {
		t.Errorf("flat view %v after the delete, want the 5 loaded tuples", v2)
	}
	// Snapshot captures without merging; Flat merges without memoising.
	snaps := db.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot = %v, want one overlay capture", snaps)
	}
	if err := db.ApplyDelta("edge", [][]int64{{8, 8}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := snaps[0].Flat(); got.Len() != 5 || got.Contains([]int64{8, 8}) {
		t.Errorf("snapshot reads %v, want the 5 tuples captured before the later write", got)
	}
}
