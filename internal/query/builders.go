package query

import "fmt"

// Relation names used by the benchmark queries. Edge is the symmetric edge
// relation (both directions of every undirected edge); Fwd is the oriented
// relation E< = {(u,v) : u < v}. Clique and cycle queries are phrased over
// Fwd, which encodes the paper's order predicates a<b<c… exactly (the
// inequality chain follows by transitivity of the per-atom orientations), so
// engines need no inequality filters. Sample1..Sample4 are the random node
// samples v1..v4 from §5.1.
const (
	Edge    = "edge"
	Fwd     = "fwd"
	Sample1 = "v1"
	Sample2 = "v2"
	Sample3 = "v3"
	Sample4 = "v4"
)

var letters = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}

// Clique returns the k-clique query over the oriented edge relation,
// equivalent to the paper's edge(a,b), edge(b,c), edge(a,c), a<b<c (§5.1).
func Clique(k int) *Query {
	if k < 3 || k > len(letters) {
		panic(fmt.Sprintf("query: Clique(%d) out of range", k))
	}
	var atoms []Atom
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			atoms = append(atoms, Atom{Rel: Fwd, Vars: []string{letters[i], letters[j]}})
		}
	}
	return New(fmt.Sprintf("%d-clique", k), atoms...)
}

// Cycle returns the k-cycle query with the paper's order predicate
// a<b<...<z, over the oriented edge relation.
func Cycle(k int) *Query {
	if k < 3 || k > len(letters) {
		panic(fmt.Sprintf("query: Cycle(%d) out of range", k))
	}
	var atoms []Atom
	for i := 0; i+1 < k; i++ {
		atoms = append(atoms, Atom{Rel: Fwd, Vars: []string{letters[i], letters[i+1]}})
	}
	atoms = append(atoms, Atom{Rel: Fwd, Vars: []string{letters[0], letters[k-1]}})
	return New(fmt.Sprintf("%d-cycle", k), atoms...)
}

// Path returns the paper's k-path query: a path of k edges whose endpoints
// are drawn from the samples v1 and v2:
//
//	v1(a), v2(z), edge(a,b), ..., edge(y,z)
func Path(k int) *Query {
	if k < 1 || k >= len(letters) {
		panic(fmt.Sprintf("query: Path(%d) out of range", k))
	}
	atoms := []Atom{
		{Rel: Sample1, Vars: []string{letters[0]}},
		{Rel: Sample2, Vars: []string{letters[k]}},
	}
	for i := 0; i < k; i++ {
		atoms = append(atoms, Atom{Rel: Edge, Vars: []string{letters[i], letters[i+1]}})
	}
	return New(fmt.Sprintf("%d-path", k), atoms...)
}

// Tree returns the paper's {1,2}-tree query: complete binary trees with 2^n
// leaves, each leaf drawn from a different random sample.
//
//	1-tree: v1(b), v2(c), edge(a,b), edge(a,c)
//	2-tree: adds a second level with leaves from v1..v4
func Tree(n int) *Query {
	switch n {
	case 1:
		return New("1-tree",
			Atom{Rel: Sample1, Vars: []string{"b"}},
			Atom{Rel: Sample2, Vars: []string{"c"}},
			Atom{Rel: Edge, Vars: []string{"a", "b"}},
			Atom{Rel: Edge, Vars: []string{"a", "c"}},
		)
	case 2:
		return New("2-tree",
			Atom{Rel: Sample1, Vars: []string{"d"}},
			Atom{Rel: Sample2, Vars: []string{"e"}},
			Atom{Rel: Sample3, Vars: []string{"f"}},
			Atom{Rel: Sample4, Vars: []string{"g"}},
			Atom{Rel: Edge, Vars: []string{"a", "b"}},
			Atom{Rel: Edge, Vars: []string{"a", "c"}},
			Atom{Rel: Edge, Vars: []string{"b", "d"}},
			Atom{Rel: Edge, Vars: []string{"b", "e"}},
			Atom{Rel: Edge, Vars: []string{"c", "f"}},
			Atom{Rel: Edge, Vars: []string{"c", "g"}},
		)
	default:
		panic(fmt.Sprintf("query: Tree(%d) out of range", n))
	}
}

// Comb returns the paper's 2-comb query: left-deep binary trees with two
// leaves drawn from different samples:
//
//	v1(c), v2(d), edge(a,b), edge(a,c), edge(b,d)
func Comb() *Query {
	return New("2-comb",
		Atom{Rel: Sample1, Vars: []string{"c"}},
		Atom{Rel: Sample2, Vars: []string{"d"}},
		Atom{Rel: Edge, Vars: []string{"a", "b"}},
		Atom{Rel: Edge, Vars: []string{"a", "c"}},
		Atom{Rel: Edge, Vars: []string{"b", "d"}},
	)
}

// Lollipop returns the paper's {2,3}-lollipop query (§4.12): an i-path from
// a sampled start node followed by an (i+1)-clique attached at the path end.
//
//	2-lollipop: v1(a), edge(a,b), edge(b,c), edge(c,d), edge(d,e), edge(c,e)
func Lollipop(i int) *Query {
	if i != 2 && i != 3 {
		panic(fmt.Sprintf("query: Lollipop(%d) out of range", i))
	}
	atoms := []Atom{{Rel: Sample1, Vars: []string{letters[0]}}}
	for j := 0; j < i; j++ {
		atoms = append(atoms, Atom{Rel: Edge, Vars: []string{letters[j], letters[j+1]}})
	}
	// Clique on the path end plus i fresh vertices (i+1 vertices total).
	cliqueVars := make([]string, 0, i+1)
	for j := i; j <= 2*i; j++ {
		cliqueVars = append(cliqueVars, letters[j])
	}
	for x := 0; x < len(cliqueVars); x++ {
		for y := x + 1; y < len(cliqueVars); y++ {
			atoms = append(atoms, Atom{Rel: Edge, Vars: []string{cliqueVars[x], cliqueVars[y]}})
		}
	}
	return New(fmt.Sprintf("%d-lollipop", i), atoms...)
}
