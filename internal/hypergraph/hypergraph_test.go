package hypergraph

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
)

func TestAlphaAcyclic(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Query
		want bool
	}{
		{"triangle", query.Clique(3), false},
		{"4cycle", query.Cycle(4), false},
		{"3path", query.Path(3), true},
		{"4path", query.Path(4), true},
		{"1tree", query.Tree(1), true},
		{"2tree", query.Tree(2), true},
		{"comb", query.Comb(), true},
		// α-acyclic but β-cyclic: triangle plus the full edge {a,b,c}.
		{"alphaOnly", query.New("ao",
			query.Atom{Rel: "R", Vars: []string{"a", "b"}},
			query.Atom{Rel: "S", Vars: []string{"b", "c"}},
			query.Atom{Rel: "T", Vars: []string{"a", "c"}},
			query.Atom{Rel: "U", Vars: []string{"a", "b", "c"}},
		), true},
	}
	for _, c := range cases {
		if _, err := BuildJoinTree(c.q); (err == nil) != c.want {
			t.Errorf("%s: BuildJoinTree error = %v, want α-acyclic %v", c.name, err, c.want)
		}
	}
}

func TestBetaAcyclic(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Query
		want bool
	}{
		{"triangle", query.Clique(3), false},
		{"4clique", query.Clique(4), false},
		{"4cycle", query.Cycle(4), false},
		{"3path", query.Path(3), true},
		{"4path", query.Path(4), true},
		{"1tree", query.Tree(1), true},
		{"2tree", query.Tree(2), true},
		{"comb", query.Comb(), true},
		{"2lollipop", query.Lollipop(2), false},
		{"3lollipop", query.Lollipop(3), false},
		// Two atoms over one variable set count as one edge.
		{"dupEdges", query.New("dup",
			query.Atom{Rel: "R", Vars: []string{"a", "b"}},
			query.Atom{Rel: "S", Vars: []string{"a", "b"}},
			query.Atom{Rel: "T", Vars: []string{"b", "c"}},
		), true},
		{"alphaOnly", query.New("ao",
			query.Atom{Rel: "R", Vars: []string{"a", "b"}},
			query.Atom{Rel: "S", Vars: []string{"b", "c"}},
			query.Atom{Rel: "T", Vars: []string{"a", "c"}},
			query.Atom{Rel: "U", Vars: []string{"a", "b", "c"}},
		), false},
	}
	for _, c := range cases {
		if got := BetaAcyclic(c.q.Atoms); got != c.want {
			t.Errorf("%s: BetaAcyclic = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTable4GAOs checks our chain condition against the paper's Table 4,
// which labels ABCDE, BACDE, BCADE, CBADE, CBDAE as NEO GAOs and ABDCE,
// BADCE as non-NEO GAOs for the 4-path query.
func TestTable4GAOs(t *testing.T) {
	q := query.Path(4) // vars a,b,c,d,e
	neo := []string{"abcde", "bacde", "bcade", "cbade", "cbdae"}
	nonNeo := []string{"abdce", "badce"}
	for _, s := range neo {
		if !IsChainGAO(split(s), q.Atoms) {
			t.Errorf("GAO %s should satisfy the chain condition", strings.ToUpper(s))
		}
	}
	for _, s := range nonNeo {
		if IsChainGAO(split(s), q.Atoms) {
			t.Errorf("GAO %s should violate the chain condition", strings.ToUpper(s))
		}
	}
}

func split(s string) []string {
	out := make([]string, len(s))
	for i, r := range s {
		out[i] = string(r)
	}
	return out
}

// TestFindChainGAOPicksLongestPath checks the §4.9 selection: for 4-path the
// best NEO is the path order A,B,C,D,E (Table 4).
func TestFindChainGAOPicksLongestPath(t *testing.T) {
	q := query.Path(4)
	gao := FindChainGAO(q.Vars(), q.Atoms)
	if gao == nil {
		t.Fatal("4-path should have a chain GAO")
	}
	if got := strings.Join(gao, ""); got != "abcde" && got != "edcba" {
		// Both directions are full paths; our scoring ties them, and the
		// exhaustive search visits identity first.
		t.Errorf("FindChainGAO(4-path) = %v, want a full path order", gao)
	}
	if GAOScore(gao, q.Atoms) != 4 {
		t.Errorf("GAOScore = %d, want 4", GAOScore(gao, q.Atoms))
	}
}

func TestFindChainGAOCyclicFails(t *testing.T) {
	q := query.Clique(3)
	if gao := FindChainGAO(q.Vars(), q.Atoms); gao != nil {
		t.Error("3-clique should not admit a chain GAO")
	}
}

// TestChainGAOMatchesBetaAcyclicity cross-checks: for all our benchmark
// queries, a chain GAO exists iff the query hypergraph is β-acyclic
// (Prop 4.2 gives ⇐; our suite also exhibits ⇒).
func TestChainGAOMatchesBetaAcyclicity(t *testing.T) {
	for _, q := range []*query.Query{
		query.Clique(3), query.Clique(4), query.Cycle(4),
		query.Path(3), query.Path(4), query.Tree(1), query.Tree(2),
		query.Comb(), query.Lollipop(2), query.Lollipop(3),
	} {
		hasGAO := FindChainGAO(q.Vars(), q.Atoms) != nil
		beta := BetaAcyclic(q.Atoms)
		if hasGAO != beta {
			t.Errorf("%s: chain GAO exists = %v but β-acyclic = %v", q.Name, hasGAO, beta)
		}
	}
}

func TestJoinTreePath(t *testing.T) {
	q := query.Path(3)
	jt, err := BuildJoinTree(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(jt.Order) != len(q.Atoms) {
		t.Fatalf("order covers %d atoms, want %d", len(jt.Order), len(q.Atoms))
	}
	// Running intersection property: for each variable, the atoms containing
	// it must form a connected subtree.
	for _, v := range q.Vars() {
		atoms := q.AtomsWith(v)
		if len(atoms) <= 1 {
			continue
		}
		in := make(map[int]bool)
		for _, i := range atoms {
			in[i] = true
		}
		// Every atom with v except one must have a path to another atom with
		// v going only upward through atoms... simplest check: climbing from
		// each atom with v toward the root, the set must meet another atom
		// with v unless it is the topmost.
		topmost := 0
		for _, i := range atoms {
			p := jt.Parent[i]
			met := false
			for p != -1 {
				if in[p] {
					met = true
					break
				}
				p = jt.Parent[p]
			}
			if !met {
				topmost++
			}
		}
		if topmost != 1 {
			t.Errorf("variable %s: %d topmost atoms, want 1 (running intersection violated)", v, topmost)
		}
	}
}

func TestJoinTreeCyclicFails(t *testing.T) {
	if _, err := BuildJoinTree(query.Clique(3)); err == nil {
		t.Error("join tree on triangle should fail")
	}
}

func TestJoinTreeTreeQueries(t *testing.T) {
	for _, q := range []*query.Query{query.Tree(1), query.Tree(2), query.Comb(), query.Path(4)} {
		jt, err := BuildJoinTree(q)
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			continue
		}
		// Bottom-up order must place children before parents.
		seen := make(map[int]bool)
		for _, i := range jt.Order {
			if p := jt.Parent[i]; p != -1 && seen[p] {
				t.Errorf("%s: parent %d ordered before child %d", q.Name, p, i)
			}
			seen[i] = true
		}
	}
}

func TestNestPointEliminationOrder(t *testing.T) {
	q := query.Path(4)
	order, ok := eliminate(q.Vars(), q.Atoms)
	if !ok {
		t.Fatal("4-path should be nest-point eliminable")
	}
	if len(order) != 5 {
		t.Errorf("elimination order %v should cover 5 vars", order)
	}
	if !reflect.DeepEqual(varsSorted(order), varsSorted(q.Vars())) {
		t.Errorf("elimination order %v is not a permutation of %v", order, q.Vars())
	}
}

func varsSorted(vs []string) []string {
	out := append([]string(nil), vs...)
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
