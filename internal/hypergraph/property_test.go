package hypergraph_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// randomBinaryQuery builds a random query over binary edge atoms plus unary
// atoms — the shape of every graph-pattern workload in the paper.
func randomBinaryQuery(rng *rand.Rand) *query.Query {
	nVars := 2 + rng.Intn(4)
	vars := make([]string, nVars)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	var atoms []query.Atom
	nAtoms := 1 + rng.Intn(5)
	for i := 0; i < nAtoms; i++ {
		if rng.Intn(4) == 0 {
			atoms = append(atoms, query.Atom{Rel: "u", Vars: []string{vars[rng.Intn(nVars)]}})
			continue
		}
		a, b := rng.Intn(nVars), rng.Intn(nVars)
		if a == b {
			b = (b + 1) % nVars
		}
		atoms = append(atoms, query.Atom{Rel: "e", Vars: []string{vars[a], vars[b]}})
	}
	return query.New("rnd", atoms...)
}

// Property: whatever FindChainGAO returns must actually satisfy the chain
// condition and cover every variable.
func TestFindChainGAOSelfConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomBinaryQuery(rng)
		gao := hypergraph.FindChainGAO(q.Vars(), q.Atoms)
		if gao == nil {
			return true
		}
		if len(gao) != q.NumVars() {
			return false
		}
		return hypergraph.IsChainGAO(gao, q.Atoms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property (Prop 4.2 direction): β-acyclicity implies a chain GAO exists.
func TestBetaAcyclicImpliesChainGAO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomBinaryQuery(rng)
		if !hypergraph.BetaAcyclic(q.Atoms) {
			return true
		}
		return hypergraph.FindChainGAO(q.Vars(), q.Atoms) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// skeleton is q's Minesweeper plan as engine.Compile builds it: the
// planner's order, the β-cyclicity verdict, and the atoms
// minesweeper.Skeleton puts in the skeleton (in) and leaves out (off).
func skeleton(q *query.Query) (gao []string, betaCyclic bool, in, off []int) {
	gao, _ = hypergraph.ChooseGAO(q, "ms")
	betaCyclic = !hypergraph.BetaAcyclic(q.Atoms)
	for i, ok := range minesweeper.Skeleton(q, gao, betaCyclic, false) {
		if ok {
			in = append(in, i)
		} else {
			off = append(off, i)
		}
	}
	return gao, betaCyclic, in, off
}

func atomsAt(q *query.Query, idx []int) []query.Atom {
	var out []query.Atom
	for _, i := range idx {
		out = append(out, q.Atoms[i])
	}
	return out
}

func TestPlanQueryAcyclic(t *testing.T) {
	q := query.Path(3)
	gao, betaCyclic, in, off := skeleton(q)
	if betaCyclic || len(in) != 5 || len(off) != 0 {
		t.Errorf("3-path plan = %v β-cyclic %v skeleton %v off %v, want full skeleton", gao, betaCyclic, in, off)
	}
	if !hypergraph.IsChainGAO(gao, q.Atoms) {
		t.Error("3-path plan GAO not chain-valid")
	}
}

func TestPlanQueryTriangleSkeleton(t *testing.T) {
	q := query.Clique(3)
	gao, betaCyclic, in, off := skeleton(q)
	if !betaCyclic {
		t.Fatal("3-clique should be β-cyclic")
	}
	if len(in) != 2 || len(off) != 1 {
		t.Errorf("3-clique skeleton = %v offskel = %v, want 2/1 split", in, off)
	}
	if !hypergraph.IsChainGAO(gao, atomsAt(q, in)) {
		t.Error("skeleton GAO not chain-valid for skeleton atoms")
	}
	if len(gao) != 3 {
		t.Errorf("GAO %v must cover all 3 variables", gao)
	}
}

func TestPlanQueryLollipop(t *testing.T) {
	gao, betaCyclic, in, off := skeleton(query.Lollipop(2))
	if !betaCyclic {
		t.Fatal("2-lollipop should be β-cyclic")
	}
	if len(gao) != 5 {
		t.Errorf("GAO %v must cover all 5 variables", gao)
	}
	if len(in)+len(off) != 6 {
		t.Errorf("skeleton %v + offskel %v must cover 6 atoms", in, off)
	}
}

func TestPlanQueryInvalid(t *testing.T) {
	if _, err := engine.ResolveGAO(engine.Options{Algorithm: engine.MS}, query.New("empty")); err == nil {
		t.Error("planning an empty query should fail")
	}
}

// Property: the Minesweeper plan always has a GAO covering all variables, a
// non-empty chain-valid skeleton, and a partition of the atoms.
func TestPlanQueryInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomBinaryQuery(rng)
		gao, _, in, off := skeleton(q)
		if len(gao) != q.NumVars() {
			return false
		}
		if len(in) == 0 || len(in)+len(off) != len(q.Atoms) {
			return false
		}
		return hypergraph.IsChainGAO(gao, atomsAt(q, in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
