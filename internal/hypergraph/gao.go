package hypergraph

import (
	"slices"

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

// FindChainGAO picks the chain order (IsChainGAO) of vars that Minesweeper
// runs the atoms under, or nil when there is none (the atoms are
// β-cyclic). Up to maxExhaustiveVars variables it is the best by GAOScore
// over every permutation (§4.9's longest path). Wider, it is the
// nest-point elimination order, or its reverse when that order is not a
// chain order: reversed, each variable's earlier variables are the ones
// still present when it was a nest point, so the reverse always is.
func FindChainGAO(vars []string, atoms []query.Atom) []string {
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
		return best
	}
	order, ok := eliminate(vars, atoms)
	if !ok {
		return nil
	}
	if !IsChainGAO(order, atoms) {
		slices.Reverse(order)
	}
	return order
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

// chainOrder is Minesweeper's order for a plain query (§4.8, §4.9): the
// chain order of a β-acyclic query, and for a β-cyclic one the chain order
// of its skeleton (Idea 7) — the atoms kept greedily, in query order (samples
// and path edges precede clique-closing edges in our builders), while they
// stay β-acyclic — followed by the variables only the other atoms bind.
// Those come last, so the order is still a chain order of the skeleton.
func chainOrder(q *query.Query) []string {
	if BetaAcyclic(q.Atoms) {
		return FindChainGAO(q.Vars(), q.Atoms)
	}
	var kept []query.Atom
	for _, a := range q.Atoms {
		if trial := append(slices.Clip(kept), a); BetaAcyclic(trial) {
			kept = trial
		}
	}
	gao := FindChainGAO(varsOf(kept), kept)
	for _, v := range q.Vars() {
		if !slices.Contains(gao, v) {
			gao = append(gao, v)
		}
	}
	return gao
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
