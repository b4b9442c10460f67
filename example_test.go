package repro_test

import (
	"context"
	"errors"
	"fmt"

	"repro"
)

// fwdStore holds an undirected graph the way the Triangles pattern reads
// it: relation "fwd", each edge once as (u, v) with u < v.
func fwdStore(edges [][]int64) *repro.Store {
	s := repro.NewStore()
	if err := s.DefineRelation("fwd", 2); err != nil {
		panic(err)
	}
	if err := s.Load("fwd", edges); err != nil {
		panic(err)
	}
	return s
}

// ExampleStore_Prepare shows the prepare-once / execute-repeatedly
// lifecycle: the query is compiled against the store's physical design
// (GAO fixed, GAO-consistent indexes bound) and then executed as pure
// plan evaluation.
func ExampleStore_Prepare() {
	// A triangle 0-1-2 with a pendant edge 2-3.
	s := fwdStore([][]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	p, err := s.Prepare(repro.Triangles(), repro.Options{Algorithm: "lftj"})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	n, err := p.Count(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("triangles:", n)
	fmt.Println("engine:", p.Algorithm())
	// Output:
	// triangles: 1
	// engine: lftj
}

// ExamplePrepared_Rows streams result tuples through a Go 1.23 range-over-
// func iterator; breaking out of the loop stops the join early.
func ExamplePrepared_Rows() {
	s := fwdStore([][]int64{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}})
	p, err := s.Prepare(repro.Triangles(), repro.Options{})
	if err != nil {
		panic(err)
	}
	for row := range p.Rows(context.Background()) {
		fmt.Println(row) // bindings in q.Vars() order: a, b, c
	}
	// Output:
	// [0 1 2]
	// [1 2 3]
}

// ExampleStore_ApplyAll keeps a pattern count current under edge updates.
// The benchmark schema stores each undirected edge twice — both directions
// in "edge", the u < v one in "fwd" — and one atomic ApplyAll per batch
// keeps the two in step. Each batch lands in the cached indexes' delta
// overlays, so the prepared handle follows every write without re-preparing.
func ExampleStore_ApplyAll() {
	s := fwdStore([][]int64{{0, 1}, {1, 2}, {2, 3}, {0, 3}}) // a square
	if err := s.DefineRelation("edge", 2); err != nil {
		panic(err)
	}
	if err := s.Load("edge", [][]int64{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}, {0, 3}, {3, 0}}); err != nil {
		panic(err)
	}
	p, err := s.Prepare(repro.Triangles(), repro.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	count := func() int64 {
		n, err := p.Count(ctx)
		if err != nil {
			panic(err)
		}
		return n
	}
	fmt.Println("square:", count())

	// Close one diagonal: two triangles appear.
	if err := s.ApplyAll(map[string][]repro.Delta{
		"edge": {repro.Insert(0, 2), repro.Insert(2, 0)},
		"fwd":  {repro.Insert(0, 2)},
	}); err != nil {
		panic(err)
	}
	fmt.Println("with diagonal:", count())

	// Remove an outer edge: one of them goes away.
	if err := s.ApplyAll(map[string][]repro.Delta{
		"edge": {repro.Remove(0, 1), repro.Remove(1, 0)},
		"fwd":  {repro.Remove(0, 1)},
	}); err != nil {
		panic(err)
	}
	fmt.Println("edge removed:", count())
	// Output:
	// square: 0
	// with diagonal: 2
	// edge removed: 1
}

// ExampleStore defines a general schema — a directed, edge-labeled social
// graph as one relation per label — loads it, and queries it with
// schema-checked parsing. A rule
// head ("closed(c, b, a) :- ...") names the query and fixes the output
// variable order.
func ExampleStore() {
	s := repro.NewStore()
	for _, rel := range []string{"follows", "likes"} {
		if err := s.DefineRelation(rel, 2); err != nil {
			panic(err)
		}
	}
	// follows is directed: a cycle 0→1→2→0 plus 2→3.
	if err := s.Load("follows", [][]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}}); err != nil {
		panic(err)
	}
	if err := s.Load("likes", [][]int64{{2, 0}, {3, 1}}); err != nil {
		panic(err)
	}

	// Directed 2-hop follows chains closed by a like back to the start.
	q, err := s.ParseQuery("closed", "follows(a,b), follows(b,c), likes(c,a)")
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	n, err := s.Count(ctx, q, repro.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("closed patterns:", n)

	// The schema is checked at parse time, with typed errors.
	_, err = s.ParseQuery("bad", "follows(a,b,c)")
	fmt.Println("arity mismatch caught:", errors.Is(err, repro.ErrArityMismatch))
	// Output:
	// closed patterns: 2
	// arity mismatch caught: true
}

// ExampleStore_ReadTxn pins one index snapshot across several executions:
// both reads inside the transaction agree even though a write lands between
// them, while a fresh transaction observes the new state.
func ExampleStore_ReadTxn() {
	s := repro.NewStore()
	if err := s.DefineRelation("e", 2); err != nil {
		panic(err)
	}
	if err := s.Load("e", [][]int64{{0, 1}, {1, 2}, {2, 3}}); err != nil {
		panic(err)
	}
	q, err := s.ParseQuery("p2", "e(a,b), e(b,c)")
	if err != nil {
		panic(err)
	}
	p, err := s.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		panic(err)
	}

	ctx := context.Background()
	txn := s.ReadTxn()
	before, _ := txn.Count(ctx, p)

	// A concurrent writer extends the chain mid-transaction.
	if err := s.Apply("e", [][]int64{{3, 4}}, nil); err != nil {
		panic(err)
	}

	again, _ := txn.Count(ctx, p)
	fresh, _ := s.ReadTxn().Count(ctx, p)
	fmt.Println("txn reads agree:", before == again)
	fmt.Println("fresh txn sees the write:", fresh == before+1)
	// Output:
	// txn reads agree: true
	// fresh txn sees the write: true
}

// ExampleStore_projection shows a projecting rule head: only the named
// variables are emitted, in head order, with duplicates eliminated inside
// the join rather than in a post-pass.
func ExampleStore_projection() {
	s := repro.NewStore()
	if err := s.DefineRelation("edge", 2); err != nil {
		panic(err)
	}
	// A diamond: 0 reaches 3 along two paths.
	if err := s.Load("edge", [][]int64{{0, 1}, {0, 2}, {1, 3}, {2, 3}}); err != nil {
		panic(err)
	}
	// Without the head this join has two results (one per middle node);
	// the projection collapses them to the distinct (start, end) pairs.
	q, err := s.ParseQuery("reach2", "reach2(a, c) :- edge(a, b), edge(b, c)")
	if err != nil {
		panic(err)
	}
	p, err := s.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	for row := range p.Rows(context.Background()) {
		fmt.Println(row)
	}
	// Output:
	// [0 3]
}

// ExampleStore_aggregation shows a streaming group-by: aggregate head
// terms fold count/sum/min/max per group as rows stream out of the join
// in grouped order — no materialization. A comparison predicate filters
// the matched bindings first, pushed into the index as a seek bound.
func ExampleStore_aggregation() {
	s := repro.NewStore()
	if err := s.DefineRelation("sale", 2); err != nil {
		panic(err)
	}
	// (customer, amount) purchase facts.
	if err := s.Load("sale", [][]int64{
		{1, 30}, {1, 70}, {2, 5}, {2, 40}, {2, 90}, {3, 8},
	}); err != nil {
		panic(err)
	}
	q, err := s.ParseQuery("spend",
		"spend(c, count(v), sum(v), max(v)) :- sale(c, v), v >= 10")
	if err != nil {
		panic(err)
	}
	p, err := s.Prepare(q, repro.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	for row := range p.Rows(context.Background()) {
		fmt.Printf("customer %d: n=%d total=%d max=%d\n", row[0], row[1], row[2], row[3])
	}
	// Output:
	// customer 1: n=2 total=100 max=70
	// customer 2: n=2 total=130 max=90
}
