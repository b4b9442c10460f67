// Package hypergraph analyzes the structure of join queries (paper §2.1):
// β-acyclicity via nest-point elimination (BetaAcyclic, the one test of
// query structure the planner asks), join trees for Yannakakis via GYO ear
// removal (BuildJoinTree, which fails exactly on α-cyclic queries), and —
// central to Minesweeper — global attribute order (GAO) selection: the
// chain condition that operationalizes nested elimination orders
// (Prop 4.2), the paper's longest-path scoring (§4.9), and β-acyclic
// skeletons for cyclic queries (Idea 7).
package hypergraph

import (
	"slices"

	"repro/internal/query"
)

func toSet(vars []string) map[string]bool {
	s := make(map[string]bool, len(vars))
	for _, v := range vars {
		s[v] = true
	}
	return s
}

func subset(a, b map[string]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// BetaAcyclic reports whether the atoms form a β-acyclic hypergraph: every
// subset of them is α-acyclic. These are exactly the queries with a GAO
// that satisfies the chain condition (IsChainGAO, Prop 4.2) — the split
// between LFTJ's and Minesweeper's guarantees (§4.8). It runs nest-point
// elimination, polynomial in the query's size, and reads no data.
func BetaAcyclic(atoms []query.Atom) bool {
	_, ok := eliminate(varsOf(atoms), atoms)
	return ok
}

// eliminate runs nest-point elimination over the atoms' variable sets: it
// removes a nest point — a variable whose atoms are totally ordered by
// inclusion — taking the first in vars order, until none is left. The
// atoms are β-acyclic iff that empties vars; removing a nest point keeps a
// β-acyclic hypergraph β-acyclic, so the scan order never changes the
// verdict. order is the elimination order.
func eliminate(vars []string, atoms []query.Atom) (order []string, ok bool) {
	edges := make([]map[string]bool, len(atoms))
	for i, a := range atoms {
		edges[i] = toSet(a.Vars)
	}
	remaining := slices.Clone(vars)
	for len(remaining) > 0 {
		i := slices.IndexFunc(remaining, func(v string) bool { return nestPoint(v, edges) })
		if i < 0 {
			return order, false
		}
		v := remaining[i]
		order = append(order, v)
		remaining = slices.Delete(remaining, i, i+1)
		for _, e := range edges {
			delete(e, v)
		}
	}
	return order, true
}

// nestPoint reports whether vertex v is a nest point: the edges containing v
// are totally ordered by inclusion.
func nestPoint(v string, edges []map[string]bool) bool {
	var inc []map[string]bool
	for _, e := range edges {
		if e[v] {
			inc = append(inc, e)
		}
	}
	for i := 0; i < len(inc); i++ {
		for j := i + 1; j < len(inc); j++ {
			if !subset(inc[i], inc[j]) && !subset(inc[j], inc[i]) {
				return false
			}
		}
	}
	return true
}
