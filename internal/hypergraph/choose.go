package hypergraph

import (
	"slices"

	"repro/internal/query"
)

// OrderScore ranks a candidate global attribute order by structure alone —
// no data, so every process that sees the query ranks alike. Lower is
// better, compared field by field in declaration order.
type OrderScore struct {
	// Cross counts the cross-join levels: unpinned levels past the first
	// whose variable shares no atom with any earlier variable, so the level
	// walks its whole domain once per binding above it — the Cartesian step
	// the AGM argument never pays for.
	Cross int
	// Displaced counts the emitted variables the order leaves outside the
	// leading key prefix (see OutputShape): the columns an engine buffers
	// per group to restore the output order. Zero for queries without an
	// order contract.
	Displaced int
	// NonChain reports, for Minesweeper only, that the order violates the
	// chain condition (IsChainGAO), costing the CDS its caching.
	NonChain bool
	// Distance is the number of variable pairs ordered differently from
	// q.Vars(): among structurally equal orders the query's own spelling
	// wins.
	Distance int
}

func (s OrderScore) less(o OrderScore) bool {
	if s.Cross != o.Cross {
		return s.Cross < o.Cross
	}
	if s.Displaced != o.Displaced {
		return s.Displaced < o.Displaced
	}
	if s.NonChain != o.NonChain {
		return !s.NonChain
	}
	return s.Distance < o.Distance
}

// RankedGAO is a candidate order with its score.
type RankedGAO struct {
	GAO []string
	// Keys is the number of leading emitted columns the order enumerates in
	// output order (see OutputShape).
	Keys  int
	Score OrderScore
	order []int // the order as indices into q.Vars()
}

// minesweeper is the algorithm name the chain criterion applies to.
const minesweeper = "ms"

// OutputShape places the query's emitted columns in a GAO. emit[i] is the
// GAO position of q.Emitted()[i]. keys is the number of leading emitted
// columns that the order enumerates in output order: skipping pinned
// variables (constant in every row, so they neither order nor split
// anything), the first unpinned GAO positions are exactly the unpinned ones
// among those columns, in column order. Rows that agree on the key columns
// are then contiguous in GAO order and groups arrive ascending; keys ==
// len(emit) means full output order with nothing to buffer.
func OutputShape(q *query.Query, gao []string) (keys int, emit []int) {
	cols := q.Emitted()
	emit = make([]int, len(cols))
	for i, v := range cols {
		emit[i] = slices.Index(gao, v)
	}
	pinned := func(v string) bool { _, ok := q.Pinned(v); return ok }
	i := 0
	for g, v := range gao {
		if pinned(v) {
			continue
		}
		for i < len(cols) && pinned(cols[i]) {
			i++
		}
		if i == len(cols) || emit[i] != g {
			break
		}
		i++
	}
	for i < len(cols) && pinned(cols[i]) {
		i++
	}
	return i, emit
}

// ScoreGAO scores an arbitrary order of the query's variables for alg.
func ScoreGAO(q *query.Query, alg string, gao []string) OrderScore {
	return newPlanner(q, alg).rankNames(gao).Score
}

// ChooseGAO picks the default global attribute order for the query under
// alg ("lftj", "ms", …) from its structure alone, and reports how many
// leading emitted columns it keeps in output order.
//
// Variables fixed by an equality to a constant lead: their level is one
// seek and they are constant in every row. Then comes the first emitted
// variable, so results stream group by group. The rest is the order with
// the least OrderScore — fewest cross-join levels, then fewest emitted
// variables displaced from the key prefix, then (Minesweeper) chain
// validity, then closeness to q.Vars() — so a query whose own variable
// order is already cross-join-free keeps it. Plain queries under
// Minesweeper take a nested elimination order outright (FindChainGAO): the
// query's own or, when it is β-cyclic, its skeleton's.
func ChooseGAO(q *query.Query, alg string) (gao []string, keys int) {
	best, _ := RankGAO(q, alg)
	return best.GAO, best.Keys
}

// RankGAO is ChooseGAO with the evidence: the chosen order and the best
// order that lost to it (GAO nil when the choice had no competitor).
func RankGAO(q *query.Query, alg string) (best, runnerUp RankedGAO) {
	pl := newPlanner(q, alg)
	if alg == minesweeper && !q.PrefixOrdered() && !slices.Contains(pl.pinned, true) {
		return pl.rankNames(chainOrder(q)), RankedGAO{}
	}
	n := len(pl.vars)
	// The forced prefix: pinned variables, then the first emitted variable.
	order := make([]int, 0, n)
	for i := range pl.vars {
		if pl.pinned[i] {
			order = append(order, i)
		}
	}
	if !pl.pinned[0] {
		order = append(order, 0)
	}
	fixed := len(order)
	for i := 1; i < n; i++ {
		if !pl.pinned[i] {
			order = append(order, i)
		}
	}
	if n > maxExhaustiveVars {
		pl.greedy(order, fixed)
		return pl.rank(order), RankedGAO{}
	}
	permute(order, fixed, func(p []int) {
		r := pl.rank(p)
		switch {
		case r.before(best):
			r.order = slices.Clone(p)
			best, runnerUp = r, best
		case r.before(runnerUp):
			r.order = slices.Clone(p)
			runnerUp = r
		}
	})
	return best, runnerUp
}

// planner holds the query's structure in index form: variables are
// positions in q.Vars(), adj[i][j] says two variables share an atom.
type planner struct {
	q      *query.Query
	alg    string
	vars   []string
	pinned []bool
	adj    [][]bool
}

func newPlanner(q *query.Query, alg string) *planner {
	vars := q.Vars()
	pl := &planner{q: q, alg: alg, vars: vars, pinned: make([]bool, len(vars)), adj: make([][]bool, len(vars))}
	idx := q.VarIndex()
	for i, v := range vars {
		_, pl.pinned[i] = q.Pinned(v)
		pl.adj[i] = make([]bool, len(vars))
	}
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			for _, w := range a.Vars {
				pl.adj[idx[v]][idx[w]] = true
			}
		}
	}
	return pl
}

func (pl *planner) rankNames(gao []string) RankedGAO {
	order := make([]int, len(gao))
	for i, v := range gao {
		order[i] = slices.Index(pl.vars, v)
	}
	return pl.rank(order)
}

// rank scores the order given as indices into q.Vars(); the result aliases
// order.
func (pl *planner) rank(order []int) RankedGAO {
	r := RankedGAO{GAO: make([]string, len(order)), order: order}
	for d, v := range order {
		r.GAO[d] = pl.vars[v]
		joined := d == 0 || pl.pinned[v]
		for _, w := range order[:d] {
			if pl.adj[v][w] {
				joined = true
			}
			if w > v {
				r.Score.Distance++
			}
		}
		if !joined {
			r.Score.Cross++
		}
	}
	var emit []int
	r.Keys, emit = OutputShape(pl.q, r.GAO)
	if pl.q.PrefixOrdered() {
		r.Score.Displaced = len(emit) - r.Keys
	}
	if pl.alg == minesweeper {
		r.Score.NonChain = !IsChainGAO(r.GAO, pl.q.Atoms)
	}
	return r
}

// before orders candidates totally — by score, then by index sequence, so
// the choice does not depend on enumeration order — and ahead of the zero
// RankedGAO.
func (r RankedGAO) before(o RankedGAO) bool {
	switch {
	case o.GAO == nil:
		return true
	case r.Score != o.Score:
		return r.Score.less(o.Score)
	}
	return slices.Compare(r.order, o.order) < 0
}

// greedy orders order[fixed:] for queries too wide to enumerate: the next
// variable is the first, in q.Vars() order, that shares an atom with one
// already placed — so a cross join is taken only when nothing joins.
func (pl *planner) greedy(order []int, fixed int) {
	for d := fixed; d < len(order); d++ {
		pick := d
		for k := d; k < len(order); k++ {
			joined := false
			for _, w := range order[:d] {
				if pl.adj[order[k]][w] {
					joined = true
					break
				}
			}
			if joined {
				pick = k
				break
			}
		}
		v := order[pick]
		copy(order[d+1:pick+1], order[d:pick])
		order[d] = v
	}
}
