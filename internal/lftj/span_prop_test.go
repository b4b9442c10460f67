package lftj_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lftj"
	"repro/internal/query"
	"repro/internal/relation"
)

// spanQueries cover the ways a count reaches the deepest level: one atom
// there (its span is counted) with and without bounds, a constant and a
// permuted index, and the shapes that keep the leapfrog — residuals decided
// at the last depth, two atoms there, a projection (the existence probe)
// and aggregates. A nil gao leaves the order to the planner.
var spanQueries = []struct {
	name, src string
	gao       []string
}{
	{"u", "u(a)", nil},
	{"u_lo", "u(a), a >= 10", nil},
	{"u_hi", "u(a), a < 30", nil},
	{"u_both", "u(a), a >= 5, a < 40", nil},
	{"e", "e(a,b)", []string{"a", "b"}},
	{"e_lo", "e(a,b), b >= 7", []string{"a", "b"}},
	{"e_hi", "e(a,b), b < 20", []string{"a", "b"}},
	{"e_both", "e(a,b), b > 6, b <= 19", []string{"a", "b"}},
	{"e_rev", "e(a,b), a >= 3, a < 30", []string{"b", "a"}},
	{"hop2", "e(a,b), e(b,c)", []string{"a", "b", "c"}},
	{"hop2_both", "e(a,b), e(b,c), c >= 5, c < 25", []string{"a", "b", "c"}},
	{"range2hop", "out(a,b,c) :- e(a,b), e(b,c), a >= 3, a < 9", nil},
	{"residual_ne", "e(a,b), e(b,c), c != 4", []string{"a", "b", "c"}},
	{"residual_lt", "e(a,b), e(b,c), a < c", []string{"a", "b", "c"}},
	{"const_last", "e(a,b), e(b,c), c = 7", []string{"a", "b", "c"}},
	{"pinned", "e(5,b), e(b,c)", nil},
	{"exists", "out(a,b) :- e(a,b), e(b,c)", nil},
	{"agg_deg", "deg(a, count(b)) :- e(a,b)", nil},
	{"agg_2hop", "agg(a, count(c)) :- u(a), e(a,b), e(b,c)", nil},
	{"triangle", "e(a,b), e(b,c), e(a,c)", []string{"a", "b", "c"}},
	{"t", "t(a,b,c)", []string{"a", "b", "c"}},
	{"t_both", "t(a,b,c), c >= 3, c < 9", []string{"a", "b", "c"}},
	{"t_chain", "t(a,b,c), t(c,d,f)", nil},
	{"t_u", "t(a,b,c), u(c)", []string{"a", "b", "c"}},
	{"t_e", "t(a,b,c), e(c,d), d < 30", []string{"a", "b", "c", "d"}},
}

// spanBase returns random relations of arity 1 to 3: u over [0,60), e over
// [0,40)² and t over [0,12)³.
func spanBase(rng *rand.Rand) []*relation.Relation {
	u := relation.NewBuilder("u", 1)
	for v := int64(0); v < 60; v++ {
		if rng.Intn(2) == 0 {
			u.Add(v)
		}
	}
	e := relation.NewBuilder("e", 2)
	for i := 0; i < 260; i++ {
		e.Add(rng.Int63n(40), rng.Int63n(40))
	}
	tr := relation.NewBuilder("t", 3)
	for i := 0; i < 360; i++ {
		tr.Add(rng.Int63n(12), rng.Int63n(12), rng.Int63n(12))
	}
	return []*relation.Relation{u.Build(), e.Build(), tr.Build()}
}

// spanDeltas returns a write that leaves every index of the relations with a
// live log: inserts under prefixes only the log holds and beside base keys,
// the first and a middle key deleted from nodes that keep others (so the
// merged cursor's base side starts past a tombstone), and nodes whose whole
// subtree is deleted.
func spanDeltas(rels []*relation.Relation) []core.DeltaBatch {
	var out []core.DeltaBatch
	for _, r := range rels {
		b := core.DeltaBatch{Name: r.Name()}
		a := r.Arity()
		// Nodes one level above the leaf, keyed by their prefix, in order.
		var prefixes [][]int64
		children := map[string][][]int64{}
		for _, tp := range r.Tuples() {
			k := fmt.Sprint(tp[:a-1])
			if _, ok := children[k]; !ok {
				prefixes = append(prefixes, tp[:a-1])
			}
			children[k] = append(children[k], tp)
		}
		// Inserts: prefixes of first key 100 and 101 that only the log
		// holds (for u, keys past the base), and a leaf key 50 + i beside
		// the base keys of a few nodes.
		for i := int64(0); i < 2; i++ {
			for j := int64(0); j < 3; j++ {
				tp := make([]int64, a)
				tp[a-1] = j
				tp[0] += 100 + 3*i
				b.Inserts = append(b.Inserts, tp)
			}
		}
		for i, p := range prefixes[:min(len(prefixes), 4)] {
			b.Inserts = append(b.Inserts, append(slices.Clone(p), 50+int64(i)))
		}
		deleted := 0
		for _, p := range prefixes {
			kids := children[fmt.Sprint(p)]
			switch {
			case len(kids) >= 3 && deleted < 5: // tombstoned leaves
				b.Deletes = append(b.Deletes, kids[0], kids[len(kids)/2])
				deleted++
			case len(kids) == 2 && deleted >= 5 && deleted < 7: // the whole subtree
				b.Deletes = append(b.Deletes, kids...)
				deleted++
			}
		}
		out = append(out, b)
	}
	return out
}

// TestSpanCountProperty: a count that sizes the deepest level as a span
// must agree with enumeration and with the brute-force oracle, whatever the
// overlay under it holds. Every query runs over a pristine database, over
// one whose indexes carry live logs and over its compacted twin. Count
// equals len(Enumerate), which equals the oracle, with one worker and with
// four, whole and cut into parts; a count makes the seeks enumeration makes.
func TestSpanCountProperty(t *testing.T) {
	rels := spanBase(rand.New(rand.NewSource(11)))
	pristine, live := core.NewDB(), core.NewDB()
	pristine.AddAll(rels)
	live.AddAll(rels)
	compile := func(db *core.DB, q *query.Query, gao []string) *core.Plan {
		plan, err := engine.Compile(engine.Options{Algorithm: engine.LFTJ, GAO: gao}, q, db)
		if err != nil {
			t.Fatalf("compile %s: %v", q.Name, err)
		}
		return plan
	}
	queries := make([]*query.Query, len(spanQueries))
	livePlans := make([]*core.Plan, len(spanQueries))
	for i, sq := range spanQueries {
		q, err := query.Parse(sq.name, sq.src)
		if err != nil {
			t.Fatal(err)
		}
		// Compiled before the write, so every index the plan binds takes
		// the write as a log rather than being built after it.
		queries[i], livePlans[i] = q, compile(live, q, sq.gao)
	}
	if err := live.ApplyDeltas(spanDeltas(rels)); err != nil {
		t.Fatal(err)
	}
	twin := core.NewDB()
	for _, name := range live.Names() {
		r, err := live.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		twin.Add(r)
	}
	for i, sq := range spanQueries {
		q := queries[i]
		gen := livePlans[i].Pin()
		for _, a := range livePlans[i].Atoms {
			if gen.Overlay(a.Index).LogLen() == 0 {
				t.Fatalf("%s: an index under the plan has no live log", sq.name)
			}
		}
		for _, st := range []struct {
			name string
			db   *core.DB
			plan *core.Plan
		}{
			{"pristine", pristine, compile(pristine, q, sq.gao)},
			{"live", live, livePlans[i]},
			{"compacted", twin, compile(twin, q, sq.gao)},
		} {
			checkSpanCount(t, sq.name+"/"+st.name, st.plan, lftj.Reference(t, q, st.db))
		}
	}
}

// checkSpanCount runs plan every way and checks each against want.
func checkSpanCount(t *testing.T, name string, plan *core.Plan, want [][]int64) {
	t.Helper()
	ctx := context.Background()
	// run executes plan under opts and returns its row count, its rows
	// when it enumerates (else nil) and its seeks.
	run := func(opts engine.Options, enumerate bool) (int64, [][]int64, int64) {
		var sc core.StatsCollector
		opts.Stats = &sc
		var rows [][]int64
		var emit func([]int64) bool
		if enumerate {
			emit = func(row []int64) bool {
				rows = append(rows, slices.Clone(row))
				return true
			}
		}
		n, err := engine.Run(ctx, plan, nil, &opts, emit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return n, rows, sc.Snapshot().Seeks
	}
	count := func(opts engine.Options) (int64, int64) {
		n, _, seeks := run(opts, false)
		return n, seeks
	}
	n, rows, enumSeeks := run(engine.Options{Workers: 1}, true)
	slices.SortFunc(rows, relation.CompareTuples)
	if n != int64(len(rows)) || !slices.EqualFunc(rows, want, slices.Equal[[]int64]) {
		t.Errorf("%s: Enumerate gave %d rows (reported %d), the oracle %d", name, len(rows), n, len(want))
	}
	if c, seeks := count(engine.Options{Workers: 1}); c != int64(len(want)) || seeks != enumSeeks {
		t.Errorf("%s: Count = %d in %d seeks, Enumerate %d rows in %d seeks", name, c, seeks, len(want), enumSeeks)
	}
	if c, _ := count(engine.Options{Workers: 4}); c != int64(len(want)) {
		t.Errorf("%s: Count with 4 workers = %d, want %d", name, c, len(want))
	}
	if !plan.Query.PartitionedBy(plan.GAO[0]) {
		return
	}
	const of = 3
	var sum int64
	for p := uint64(0); p < of; p++ {
		part := &engine.Part{Part: p, Of: of}
		c1, _ := count(engine.Options{Workers: 1, Part: part})
		c4, _ := count(engine.Options{Workers: 4, Part: part})
		_, rows, _ := run(engine.Options{Workers: 1, Part: part}, true)
		if c1 != int64(len(rows)) || c4 != c1 {
			t.Errorf("%s part %d/%d: Count = %d (4 workers: %d), Enumerate %d rows", name, p, of, c1, c4, len(rows))
		}
		sum += c1
	}
	if sum != int64(len(want)) {
		t.Errorf("%s: parts count %d rows in all, want %d", name, sum, len(want))
	}
}
