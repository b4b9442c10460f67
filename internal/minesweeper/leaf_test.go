package minesweeper

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// leafQueries are the queries the leaf-message tests run, each with whether
// a count over pristine indexes sends leaf messages: the acyclic suite,
// cyclic queries whose skeleton drops an atom, queries whose prefix variable
// only a leaf atom binds, and an atom repeating a variable — which the query
// language spells as an equality, so the count takes the exact path.
func leafQueries() []struct {
	q    *query.Query
	leaf bool
} {
	return []struct {
		q    *query.Query
		leaf bool
	}{
		{query.Path(2), true},
		{query.Path(3), true},
		{query.Path(4), true},
		{query.Tree(1), true},
		{query.Comb(), true},
		{query.Lollipop(2), false},
		{query.Clique(3), false},
		{mustParse("leafonly", "edge(a,b), v2(b)"), true},
		{mustParse("edge", "edge(a,b)"), true},
		{mustParse("leafloop", "out(a,b,c) :- edge(a,b), loop(b,c), b = c"), false},
		{mustParse("prefixloop", "out(a,b,c) :- loop(a,b), edge(b,c), a = b"), false},
	}
}

// loopDB is a random benchmark-schema database plus "loop", a binary
// relation that holds self-loops, so an atom repeating a variable matches.
func loopDB(rng *rand.Rand) *core.DB {
	n := 4 + rng.Intn(10)
	db := testutil.RandomGraphDB(rng, n, 2+rng.Intn(30), 1+rng.Intn(3))
	b := relation.NewBuilder("loop", 2)
	for i := 0; i < 2*n; i++ {
		u := int64(rng.Intn(n))
		v := u
		if rng.Intn(2) == 0 {
			v = int64(rng.Intn(n))
		}
		b.Add(u, v)
	}
	db.Add(b.Build())
	return db
}

// leafOracle counts q's rows with the naive engine, which reads only the
// body: a query with a predicate — the equalities of leafQueries — has the
// body's rows that satisfy it.
func leafOracle(t *testing.T, q *query.Query, db *core.DB) int64 {
	t.Helper()
	if len(q.Preds) == 0 {
		return oracle(t, q, db)
	}
	body := query.New(q.Name, q.Atoms...)
	pos := map[string]int{}
	for i, v := range body.Vars() {
		pos[v] = i
	}
	var n int64
	err := naive.Enumerate(context.Background(), body, db, func(row []int64) bool {
		for _, p := range q.Preds {
			if p.Op != "=" || !p.IsVar {
				t.Fatalf("%s: leafOracle evaluates variable equalities only, not %s", q.Name, p)
			}
			if row[pos[p.Left]] != row[pos[p.Right]] {
				return true
			}
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sendsLeafMessages reports whether a count of plan on gen takes the leaf
// path, the decision a run's reset makes.
func sendsLeafMessages(plan *core.Plan, gen *core.Generation) bool {
	var ex exec
	ex.reset(context.Background(), plan, gen, nil, Options{})
	return len(ex.leaf) > 0
}

// TestLeafMessagesMatchOracle: a count with leaf messages equals the
// enumerated row count, the naive oracle and the sum over explicit parts of
// the first variable, on random instances. Without Idea 7's skeleton the
// cyclic queries send leaf messages too; without Idea 4 every probe seeks.
func TestLeafMessagesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 25; trial++ {
		db := loopDB(rng)
		for _, c := range leafQueries() {
			plan := compile(t, c.q, db, nil, Options{})
			if got := sendsLeafMessages(plan, plan.Pin()); got != c.leaf {
				t.Fatalf("%s: leaf messages %v, want %v", c.q.Name, got, c.leaf)
			}
			want := leafOracle(t, c.q, db)
			for _, opts := range []Options{{}, {DisableMemo: true}, {DisableSkeleton: true}} {
				if n := countIn(t, compile(t, c.q, db, nil, opts), opts, core.FullRange); n != want {
					t.Errorf("trial %d %s %+v: Count = %d, naive %d", trial, c.q.Name, opts, n, want)
				}
			}
			var rows int64
			if _, err := Run(context.Background(), plan, plan.Pin(), Options{}, core.FullRange, nil, func([]int64) bool { rows++; return true }); err != nil {
				t.Fatal(err)
			}
			if rows != want {
				t.Errorf("trial %d %s: Enumerate yields %d rows, naive %d", trial, c.q.Name, rows, want)
			}
			cut := int64(rng.Intn(8))
			parts := []core.Range{{Lo: -1, Hi: cut}, {Lo: cut, Hi: cut + 3}, {Lo: cut + 3, Hi: relation.PosInf}}
			var sum int64
			for _, r := range parts {
				sum += countIn(t, plan, Options{}, r)
			}
			if sum != want {
				t.Errorf("trial %d %s: parts %v count %d, naive %d", trial, c.q.Name, parts, sum, want)
			}
		}
	}
}

// TestLeafShapeRepeatedVariable: an atom whose index repeats a GAO
// position turns leaf messages off, wherever it sits.
func TestLeafShapeRepeatedVariable(t *testing.T) {
	ov := relation.NewOverlay(relation.FromTuples("e", 2, [][]int64{{1, 2}}))
	for _, c := range []struct {
		varPos [][]int
		leaf   bool
	}{
		{[][]int{{0, 1}, {1}}, true},
		{[][]int{{0, 1}, {1, 1}}, false},
		{[][]int{{0, 0}, {0, 1}}, false},
	} {
		ex := &exec{n: 2, inSkel: []bool{true, true}, ovs: []*relation.Overlay{ov, ov}}
		for _, vp := range c.varPos {
			ex.atoms = append(ex.atoms, core.AtomIndex{VarPos: vp})
		}
		ex.leafShape()
		if got := len(ex.leaf) > 0; got != c.leaf {
			t.Errorf("VarPos %v: leaf messages %v, want %v", c.varPos, got, c.leaf)
		}
	}
}

// TestLeafMessagesLiveLog: a leaf atom whose overlay holds a live log takes
// the per-value path, and counts what the compacted twin — the same tuples
// in a fresh database — counts with leaf messages.
func TestLeafMessagesLiveLog(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 10; trial++ {
		db := testutil.RandomGraphDB(rng, 20, 60, 2)
		var ins, del [][]int64
		for len(ins) < 6 {
			u, v := int64(rng.Intn(20)), int64(rng.Intn(20))
			if u != v {
				ins = append(ins, []int64{u, v}, []int64{v, u})
			}
		}
		edges, err := db.Relation(query.Edge)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(edges.Len())[:2] {
			del = append(del, []int64{edges.Value(i, 0), edges.Value(i, 1)}, []int64{edges.Value(i, 1), edges.Value(i, 0)})
		}
		for _, q := range []*query.Query{query.Path(3), query.Comb(), mustParse("leafonly", "edge(a,b), v2(b)")} {
			// Bind the indexes first, so the delta lands in their logs.
			plan := compile(t, q, db, nil, Options{})
			if trial == 0 && !sendsLeafMessages(plan, plan.Pin()) {
				t.Fatalf("%s: no leaf messages before the delta", q.Name)
			}
		}
		if err := db.ApplyDelta(query.Edge, ins, del); err != nil {
			t.Fatal(err)
		}
		twin := core.NewDB()
		for _, name := range []string{query.Edge, query.Sample1, query.Sample2, query.Sample3, query.Sample4} {
			r, err := db.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			twin.Add(r)
		}
		for _, q := range []*query.Query{query.Path(3), query.Comb(), mustParse("leafonly", "edge(a,b), v2(b)")} {
			live, compacted := compile(t, q, db, nil, Options{}), compile(t, q, twin, nil, Options{})
			if sendsLeafMessages(live, live.Pin()) {
				t.Fatalf("%s: leaf messages over a live log", q.Name)
			}
			if !sendsLeafMessages(compacted, compacted.Pin()) {
				t.Fatalf("%s: no leaf messages over the compacted twin", q.Name)
			}
			got, want := countIn(t, live, Options{}, core.FullRange), countIn(t, compacted, Options{}, core.FullRange)
			if got != want || want != oracle(t, q, twin) {
				t.Errorf("trial %d %s: live log %d, compacted twin %d, naive %d", trial, q.Name, got, want, oracle(t, q, twin))
			}
		}
	}
}

// TestLeafFrameReuse: the hot frame a leaf-message count releases must not
// carry its leaf atoms into the next run of a different plan. The runs share
// one goroutine, so each takes the frame the previous one released.
func TestLeafFrameReuse(t *testing.T) {
	db := loopDB(rand.New(rand.NewSource(41)))
	path, tri := compile(t, query.Path(3), db, nil, Options{}), compile(t, query.Clique(3), db, nil, Options{})
	if !sendsLeafMessages(path, path.Pin()) || sendsLeafMessages(tri, tri.Pin()) {
		t.Fatal("want leaf messages for path3 and not for the triangle")
	}
	wantPath, wantTri := oracle(t, path.Query, db), oracle(t, tri.Query, db)
	for i := 0; i < 3; i++ {
		if n := countIn(t, path, Options{}, core.FullRange); n != wantPath {
			t.Fatalf("round %d: path3 Count = %d, naive %d", i, n, wantPath)
		}
		var rows int64
		if _, err := Run(context.Background(), tri, tri.Pin(), Options{}, core.FullRange, nil, func([]int64) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		if n := countIn(t, tri, Options{}, core.FullRange); n != wantTri || rows != wantTri {
			t.Fatalf("round %d: triangle Count = %d, Enumerate %d rows, naive %d", i, n, rows, wantTri)
		}
	}
}

// mustParse is query.Parse that panics on error, for statically known
// queries.
func mustParse(name, src string) *query.Query {
	q, err := query.Parse(name, src)
	if err != nil {
		panic(err)
	}
	return q
}
