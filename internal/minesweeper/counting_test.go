package minesweeper

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestCounterSubtreeReuse pins the counting-memo behavior on a small
// instance that previously exposed a lost-subtree bug (a failed
// contained-atom verification must not drop newly opened depths): the graph
// 0-1-2 with 2-3 and 2-4 under the 4-path query.
func TestCounterSubtreeReuse(t *testing.T) {
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}, {2, 4}}
	db := testutil.GraphDB(edges, map[string][]int64{
		query.Sample1: {0, 1, 4},
		query.Sample2: {1, 2, 3, 4},
	})
	q := query.Path(4)
	plain := countOpts(t, q, db, Options{DisableCountMemo: true})
	var reuses, stores int
	counterTrace = func(ev string, args ...interface{}) {
		switch ev {
		case "reuse":
			reuses++
		case "store":
			stores++
		}
	}
	defer func() { counterTrace = nil }()
	if memo := count(t, q, db); memo != plain {
		t.Fatalf("memo count = %d, plain = %d", memo, plain)
	}
	if plain != 28 {
		t.Errorf("plain count = %d, want 28 (hand-checked)", plain)
	}
	if reuses == 0 {
		t.Error("expected at least one subtree reuse on this instance")
	}
	if stores == 0 {
		t.Error("expected memo stores")
	}
}

// TestCounterContextShape checks the ctx(d) computation for the 3-path
// query under the canonical GAO: the suffix at depth 2 (variable c) depends
// only on c itself.
func TestCounterContextShape(t *testing.T) {
	q := query.Path(3)
	gao, _ := hypergraph.ChooseGAO(q, "ms")
	if len(gao) != 4 {
		t.Fatalf("gao = %v", gao)
	}
	atoms, err := core.BindAtoms(q, testutil.GraphDB(testutil.K4, map[string][]int64{query.Sample1: {0}, query.Sample2: {1}}), gao)
	if err != nil {
		t.Fatal(err)
	}
	var c counter
	c.reset(&exec{n: len(gao), atoms: atoms})
	// The last-but-one depth's context must be small (enabling the paper's
	// low-selectivity reuse): it is {that position} plus at most one earlier
	// position.
	d := len(gao) - 2
	if len(c.ctxPos(d)) > 2 {
		t.Errorf("ctx(%d) = %v, want at most 2 positions", d, c.ctxPos(d))
	}
	// Depth 0 contains v1 only when a sample is the sole prefix atom.
	if len(c.contained(len(gao)-1)) != len(q.Atoms) {
		t.Errorf("all atoms must be contained at the last depth, got %v", c.contained(len(gao)-1))
	}
}

// TestCountMemoRandomHeavy hammers the counting memo against plain counting
// across many random instances and all β-acyclic benchmark queries.
func TestCountMemoRandomHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	queries := []*query.Query{
		query.Path(3), query.Path(4), query.Tree(1), query.Tree(2), query.Comb(),
	}
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		m := 2 + rng.Intn(25)
		sel := 1 + rng.Intn(3)
		db := testutil.RandomGraphDB(rng, n, m, sel)
		for _, q := range queries {
			plain := countOpts(t, q, db, Options{DisableCountMemo: true})
			if memo := count(t, q, db); plain != memo {
				t.Errorf("trial %d %s: memo = %d, plain = %d", trial, q.Name, memo, plain)
			}
		}
	}
}

// TestCountMemoCyclic: the counting memo must also be sound for β-cyclic
// queries (skeleton mode advances the frontier in larger jumps).
func TestCountMemoCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 10; trial++ {
		db := testutil.RandomGraphDB(rng, 4+rng.Intn(10), 2+rng.Intn(30), 2)
		for _, q := range []*query.Query{query.Clique(3), query.Clique(4), query.Cycle(4), query.Lollipop(2)} {
			plain := countOpts(t, q, db, Options{DisableCountMemo: true})
			if memo := count(t, q, db); plain != memo {
				t.Errorf("trial %d %s: memo = %d, plain = %d", trial, q.Name, memo, plain)
			}
		}
	}
}
