package hypergraph

import (
	"fmt"

	"repro/internal/query"
)

// IsChainGAO reports whether the given global attribute order satisfies the
// chain condition with respect to the given atoms: for every variable X, the
// family { vars(R) ∩ before(X) : R ∈ atoms, X ∈ vars(R) } must be totally
// ordered by inclusion. This is the property that makes every principal
// filter G_i of the Minesweeper CDS a chain (paper Prop 4.2); the paper
// calls such orders nested elimination orders (NEO).
func IsChainGAO(gao []string, atoms []query.Atom) bool {
	pos := make(map[string]int, len(gao))
	for i, v := range gao {
		pos[v] = i
	}
	for _, a := range atoms {
		for _, v := range a.Vars {
			if _, ok := pos[v]; !ok {
				return false // GAO must cover every variable
			}
		}
	}
	for k, x := range gao {
		var prefixes []map[string]bool
		for _, a := range atoms {
			has := false
			for _, v := range a.Vars {
				if v == x {
					has = true
					break
				}
			}
			if !has {
				continue
			}
			p := make(map[string]bool)
			for _, v := range a.Vars {
				if pos[v] < k {
					p[v] = true
				}
			}
			prefixes = append(prefixes, p)
		}
		for i := 0; i < len(prefixes); i++ {
			for j := i + 1; j < len(prefixes); j++ {
				if !subset(prefixes[i], prefixes[j]) && !subset(prefixes[j], prefixes[i]) {
					return false
				}
			}
		}
	}
	return true
}

// GAOScore is the paper's §4.9 selection criterion, concretized: the number
// of consecutive GAO pairs that co-occur in some atom ("the NEO with the
// longest path length ... longer paths allow for more caching"). For the
// 4-path query this ranks A,B,C,D,E above the other NEOs, matching Table 4.
func GAOScore(gao []string, atoms []query.Atom) int {
	score := 0
	for i := 0; i+1 < len(gao); i++ {
		if coOccur(gao[i], gao[i+1], atoms) {
			score++
		}
	}
	return score
}

func coOccur(x, y string, atoms []query.Atom) bool {
	for _, a := range atoms {
		hx, hy := false, false
		for _, v := range a.Vars {
			if v == x {
				hx = true
			}
			if v == y {
				hy = true
			}
		}
		if hx && hy {
			return true
		}
	}
	return false
}

// maxExhaustiveVars bounds exhaustive GAO search; the paper's queries have
// at most 7 variables.
const maxExhaustiveVars = 9

// FindChainGAO returns the best chain-valid GAO for the given atoms over the
// given variable universe, or ok == false if none exists (the sub-hypergraph
// is β-cyclic). For small queries the search is exhaustive; larger queries
// fall back to nest-point elimination orders.
func FindChainGAO(vars []string, atoms []query.Atom) (gao []string, ok bool) {
	if len(vars) <= maxExhaustiveVars {
		best, bestScore := []string(nil), -1
		perm := append([]string(nil), vars...)
		permute(perm, 0, func(p []string) {
			if !IsChainGAO(p, atoms) {
				return
			}
			if s := GAOScore(p, atoms); s > bestScore {
				bestScore = s
				best = append([]string(nil), p...)
			}
		})
		return best, best != nil
	}
	h := &Hypergraph{Vars: vars}
	for _, a := range atoms {
		h.Edges = append(h.Edges, a.Vars)
	}
	order, ok := h.NestPointElimination()
	if !ok || !IsChainGAO(order, atoms) {
		return nil, false
	}
	return order, true
}

func permute[T any](p []T, k int, visit func([]T)) {
	if k >= len(p) {
		visit(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, visit)
		p[k], p[i] = p[i], p[k]
	}
}

// Plan is the structural execution plan for Minesweeper: the GAO, and for
// β-cyclic queries the β-acyclic skeleton (Idea 7) — the subset of atoms
// whose gaps become CDS constraints; gaps from the remaining atoms only
// advance the frontier.
type Plan struct {
	GAO        []string
	Skeleton   []int // atom indices in the skeleton
	OffSkel    []int // atom indices outside the skeleton
	BetaCyclic bool  // true if the full query needed a proper skeleton
}

// PlanQuery computes the GAO and skeleton for a query (paper §4.8, §4.9).
// For β-acyclic queries the skeleton is the whole query. For β-cyclic
// queries a maximal chain-valid subset of atoms is chosen greedily and the
// GAO is optimized for that skeleton (remaining variables, if any, are
// appended in first-appearance order; the chain condition is preserved
// because appended variables occur only in off-skeleton atoms).
func PlanQuery(q *query.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if gao, ok := FindChainGAO(q.Vars(), q.Atoms); ok {
		skeleton := make([]int, len(q.Atoms))
		for i := range skeleton {
			skeleton[i] = i
		}
		return &Plan{GAO: gao, Skeleton: skeleton}, nil
	}
	// Greedy maximal chain-valid subset, preferring earlier atoms (samples
	// and path edges precede clique-closing edges in our builders).
	var skeleton []int
	var kept []query.Atom
	for i, a := range q.Atoms {
		trial := append(append([]query.Atom(nil), kept...), a)
		if _, ok := FindChainGAO(varsOf(trial), trial); ok {
			kept = trial
			skeleton = append(skeleton, i)
		}
	}
	if len(skeleton) == 0 {
		return nil, fmt.Errorf("hypergraph: no chain-valid skeleton for query %q", q.Name)
	}
	gao, _ := FindChainGAO(varsOf(kept), kept)
	// Append variables that occur only in off-skeleton atoms.
	inGAO := make(map[string]bool, len(gao))
	for _, v := range gao {
		inGAO[v] = true
	}
	for _, v := range q.Vars() {
		if !inGAO[v] {
			gao = append(gao, v)
		}
	}
	plan := &Plan{GAO: gao, Skeleton: skeleton, BetaCyclic: true}
	inSkel := make(map[int]bool, len(skeleton))
	for _, i := range skeleton {
		inSkel[i] = true
	}
	for i := range q.Atoms {
		if !inSkel[i] {
			plan.OffSkel = append(plan.OffSkel, i)
		}
	}
	return plan, nil
}

func varsOf(atoms []query.Atom) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}
