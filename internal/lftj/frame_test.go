package lftj

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// equivalenceQueries are the golden shapes whose paths differ: the cyclic
// joins, bounds (range2hop), the existence probe below the last emitted
// level (pinned_projected) and the buffered group sink (groupby).
var equivalenceQueries = []string{"triangle", "clique4", "range2hop", "pinned_projected", "groupby"}

func goldenQuery(t *testing.T, name string) *query.Query {
	t.Helper()
	for _, g := range goldenQueries {
		if g.name == name {
			return mustParse(g.name, g.src)
		}
	}
	t.Fatalf("no golden query %q", name)
	return nil
}

// collectRows runs plan on its database's current generation and returns
// the rows it emitted, in order.
func collectRows(plan *core.Plan, sc *core.StatsCollector) ([][]int64, error) {
	var out [][]int64
	_, err := Run(context.Background(), plan, plan.Pin(), core.FullRange, sc, func(row []int64) bool {
		out = append(out, slices.Clone(row))
		return true
	})
	return out, err
}

// runCollect returns plan's rows, in order, and its seeks; then it runs the
// plan again in count mode and checks that count mode makes the same seeks.
func runCollect(t *testing.T, plan *core.Plan) ([][]int64, int64) {
	t.Helper()
	var sc core.StatsCollector
	rows, err := collectRows(plan, &sc)
	if err != nil {
		t.Fatalf("%s: %v", plan.Query.Name, err)
	}
	seeks := sc.Snapshot().Seeks
	var cc core.StatsCollector
	n, err := Run(context.Background(), plan, plan.Pin(), core.FullRange, &cc, nil)
	if err != nil {
		t.Fatalf("%s count: %v", plan.Query.Name, err)
	}
	if n != int64(len(rows)) || cc.Snapshot().Seeks != seeks {
		t.Errorf("%s: count mode %d rows in %d seeks, enumeration %d rows in %d seeks", plan.Query.Name, n, cc.Snapshot().Seeks, len(rows), seeks)
	}
	return rows, seeks
}

// TestLaneCursorEquivalence runs every query on an overlay whose live log
// touches a few first-level subtrees — so one execution leapfrogs over raw
// levels where the cursors read the base alone and through the merging
// cursors where the log lands — and on its compacted twin, where every
// level is a lane. Rows, their order and every seek must agree.
func TestLaneCursorEquivalence(t *testing.T) {
	db := testutil.RandomGraphDB(rand.New(rand.NewSource(7)), 120, 700, 10)
	plans := make([]*core.Plan, len(equivalenceQueries))
	for i, name := range equivalenceQueries {
		plans[i] = compile(t, goldenQuery(t, name), db, nil)
	}
	// Inserts and deletes around vertices 5, 12 and 15 (the pinned vertex
	// and two inside range2hop's range); the other 117 first-level subtrees
	// stay untouched.
	var edgeIns, edgeDels, fwdIns, fwdDels [][]int64
	for _, e := range [][2]int64{{5, 100}, {5, 101}, {12, 13}, {12, 77}, {15, 5}} {
		edgeIns = append(edgeIns, []int64{e[0], e[1]}, []int64{e[1], e[0]})
		fwdIns = append(fwdIns, []int64{min(e[0], e[1]), max(e[0], e[1])})
	}
	edges, err := db.Relation(query.Edge)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range edges.Tuples() {
		if (tp[0] == 12 || tp[0] == 15) && tp[1] > 20 && len(edgeDels) < 4 {
			edgeDels = append(edgeDels, tp, []int64{tp[1], tp[0]})
			fwdDels = append(fwdDels, []int64{min(tp[0], tp[1]), max(tp[0], tp[1])})
		}
	}
	if err := db.ApplyDeltas([]core.DeltaBatch{
		{Name: query.Edge, Inserts: edgeIns, Deletes: edgeDels},
		{Name: query.Fwd, Inserts: fwdIns, Deletes: fwdDels},
	}); err != nil {
		t.Fatal(err)
	}
	// The compacted twin: the same contents, every index a pristine trie.
	twin := core.NewDB()
	for _, name := range db.Names() {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		twin.Add(r)
	}
	for i, plan := range plans {
		gen, logged := plan.Pin(), 0
		for _, a := range plan.Atoms {
			logged += gen.Overlay(a.Index).LogLen()
		}
		if logged == 0 {
			t.Fatalf("%s: no live log under the plan; the test would compare lanes with lanes", plan.Query.Name)
		}
		rows, seeks := runCollect(t, plan)
		twinRows, twinSeeks := runCollect(t, compile(t, plan.Query, twin, nil))
		if !reflect.DeepEqual(rows, twinRows) {
			t.Errorf("%s: %d rows over the logged overlay, %d over its compacted twin, or a different order", equivalenceQueries[i], len(rows), len(twinRows))
		}
		if seeks != twinSeeks {
			t.Errorf("%s: %d seeks over the logged overlay, %d over its compacted twin", equivalenceQueries[i], seeks, twinSeeks)
		}
		if len(rows) == 0 {
			t.Errorf("%s: no rows; the comparison is vacuous", equivalenceQueries[i])
		}
	}
}

// reference evaluates q by brute force: naive.Enumerate over the plain join
// of q's atoms, every predicate applied after it, projected onto the
// columns an engine emits and deduplicated, sorted.
func reference(t *testing.T, q *query.Query, db *core.DB) [][]int64 {
	t.Helper()
	plain := query.New("ref", q.Atoms...)
	pos := make(map[string]int)
	for i, v := range plain.Vars() {
		pos[v] = i
	}
	holds := func(row []int64, p query.Pred) bool {
		l, r := row[pos[p.Left]], p.Const
		if p.IsVar {
			r = row[pos[p.Right]]
		}
		switch p.Op {
		case query.OpEq:
			return l == r
		case query.OpNe:
			return l != r
		case query.OpLt:
			return l < r
		case query.OpLe:
			return l <= r
		case query.OpGt:
			return l > r
		case query.OpGe:
			return l >= r
		}
		t.Fatalf("unknown op %q", p.Op)
		return false
	}
	seen := map[string]bool{}
	var rows [][]int64
	err := naive.Enumerate(context.Background(), plain, db, func(row []int64) bool {
		for _, p := range q.Preds {
			if !holds(row, p) {
				return true
			}
		}
		out := make([]int64, 0, q.Prefix())
		for _, v := range q.Emitted() {
			out = append(out, row[pos[v]])
		}
		if key := fmt.Sprint(out); !seen[key] {
			seen[key] = true
			rows = append(rows, out)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(rows)
	return rows
}

// reuseCase is one plan of the frame-reuse test with its oracle rows.
type reuseCase struct {
	plan *core.Plan
	want [][]int64
}

// TestFrameReuse interleaves plans of different shapes over pooled frames,
// first on one goroutine and then on four, and checks every result against
// the oracle. The order runs a plan that emits wider rows right after a
// narrower one, so a frame whose output row kept the earlier run's length
// would fail here.
func TestFrameReuse(t *testing.T) {
	db := testutil.RandomGraphDB(rand.New(rand.NewSource(7)), 120, 700, 10)
	names := []string{"pinned_projected", "clique4", "groupby", "triangle", "point", "range2hop"}
	cases := make([]reuseCase, len(names))
	widened := false
	for i, name := range names {
		q := goldenQuery(t, name)
		plan := compile(t, q, db, nil)
		cases[i] = reuseCase{plan: plan, want: reference(t, q, db)}
		if i > 0 && len(q.Emitted()) > len(cases[i-1].plan.Query.Emitted()) {
			widened = true
		}
	}
	if !widened {
		t.Fatal("no plan emits wider rows than the one before it")
	}
	check := func(c reuseCase) error {
		got, err := collectRows(c.plan, nil)
		if err != nil {
			return err
		}
		sortTuples(got)
		if !reflect.DeepEqual(got, c.want) {
			return fmt.Errorf("%s: %d rows, oracle %d", c.plan.Query.Name, len(got), len(c.want))
		}
		return nil
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			if err := check(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*len(cases); i++ {
				if err := check(cases[(g+i)%len(cases)]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReleasedFrameHoldsNoGeneration checks that a frame back in the pool
// references no overlay, no trie, no key array of one, no consumer and no
// context: a pooled frame must not keep a superseded generation alive.
func TestReleasedFrameHoldsNoGeneration(t *testing.T) {
	db := testutil.RandomGraphDB(rand.New(rand.NewSource(7)), 120, 700, 10)
	for _, name := range []string{"groupby", "range2hop", "clique4"} {
		plan := compile(t, goldenQuery(t, name), db, nil)
		if _, err := Run(context.Background(), plan, plan.Pin(), core.FullRange, nil, func([]int64) bool { return true }); err != nil {
			t.Fatal(err)
		}
		ex := hotFrame.Load()
		if ex == nil {
			t.Fatal("the released frame did not reach the hot slot")
		}
		for i, m := range ex.members[:cap(ex.members)] {
			if m.c != nil || m.vals != nil || m.pos != nil {
				t.Errorf("%s: released member %d keeps a cursor or a level", name, i)
			}
		}
		for _, path := range pins(reflect.ValueOf(ex), "frame", map[uintptr]bool{}) {
			t.Errorf("%s: released frame holds %s", name, path)
		}
	}
}

var (
	overlayType = reflect.TypeOf((*relation.Overlay)(nil))
	trieType    = reflect.TypeOf((*relation.CSRTrie)(nil))
)

// pins walks v (slices up to their capacity) and returns the path of every
// non-nil overlay or trie pointer, func and interface it reaches.
func pins(v reflect.Value, path string, seen map[uintptr]bool) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		if v.Type() == overlayType || v.Type() == trieType {
			return []string{path}
		}
		if seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		return pins(v.Elem(), path, seen)
	case reflect.Func, reflect.Interface:
		if !v.IsNil() {
			return []string{path}
		}
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, pins(v.Field(i), path+"."+v.Type().Field(i).Name, seen)...)
		}
		return out
	case reflect.Slice:
		var out []string
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			out = append(out, pins(full.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
		return out
	}
	return nil
}
