package engine

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/lftj"
	"repro/internal/query"
)

// The sample an order is priced on: every first-level key among the
// heavyKeys heaviest of its lead variable, plus every stride-th of the
// other keys, whose seeks count stride times.
const (
	heavyKeys = 48
	stride    = 24
)

// budget is the most seeks pricing one query may make, over every order it
// prices: about 20 ms of leapfrog seeks. Past it, the cheapest order priced
// so far is chosen, or ChooseGAO's when none was priced to the end, so a
// query whose every order is dear (a long path over a large relation)
// pays a bounded price at Prepare.
const budget = int64(1) << 19

// unpriced is the bound a first candidate is priced under: no bound.
const unpriced = int64(1) << 60

// pricedPlan chooses the attribute order of an LFTJ query without a head on
// the data, and returns its plan; nil when the query has a head, or when no
// order was priced to the end (a single variable, a disconnected query, or a
// budget spent before any order completed), and keeps ChooseGAO's. The order
// is built a variable at a time: at each step every variable that may come
// next without a cross-join level is completed greedily
// (hypergraph.Extensions), each completion is priced by a sampled count
// (price) under the price of the cheapest so far, and the cheapest one's
// next variable is kept — at most n(n+1)/2 orders for n variables.
// Completions are visited cheapest by a proxy first, so that the bound is
// tight early; ties go to the earlier completion, so the choice does not
// depend on the visit order, and equal contents choose equal orders. Every
// index pricing built and the chosen plan does not bind is dropped
// (core.Trial).
func pricedPlan(q *query.Query, db *core.DB) (*core.Plan, error) {
	if q.Headed() {
		return nil, nil
	}
	pr := newPricer(q, db, budget)
	var best []string
	for prefix := []string(nil); len(prefix) < q.NumVars(); prefix = best[:len(prefix)+1] {
		exts := hypergraph.Extensions(q, prefix)
		if len(exts) == 1 {
			best = exts[0]
			continue
		}
		var err error
		if best, err = pr.cheapest(exts); err != nil || best == nil {
			return nil, err
		}
	}
	if _, ok := pr.prices[key(best)]; !ok {
		return nil, nil
	}
	structural, _ := hypergraph.ChooseGAO(q, string(LFTJ))
	pricing := &core.Pricing{Seeks: pr.prices[key(best)], Structural: structural, StructuralSeeks: -1, Priced: pr.priced}
	if p, ok := pr.prices[key(structural)]; ok {
		pricing.StructuralSeeks = p
	}
	plan := pr.trial.Keep(pr.plans[key(best)])
	plan.BetaCyclic = !hypergraph.BetaAcyclic(q.Atoms)
	plan.Pricing = pricing
	return plan, nil
}

// Price returns the sampled price of q under gao (see pricedPlan), with no
// bound and no budget: what Explain reports for an order pricing gave up on.
func Price(q *query.Query, db *core.DB, gao []string) (int64, error) {
	pr := newPricer(q, db, unpriced)
	if _, err := pr.cheapest([][]string{gao}); err != nil {
		return 0, err
	}
	return pr.prices[key(gao)], nil
}

func newPricer(q *query.Query, db *core.DB, budget int64) *pricer {
	return &pricer{q: q, trial: db.NewTrial(), left: budget, plans: map[string]*core.Plan{}, prices: map[string]int64{},
		samples: map[string]*sample{}, squares: map[*core.Index]int64{}}
}

// pricer prices the candidate orders of one query in one trial.
type pricer struct {
	q      *query.Query
	trial  *core.Trial
	left   int64                 // seeks left of the budget
	plans  map[string]*core.Plan // trial plan per order
	prices map[string]int64      // sampled price per order priced to the end
	// samples holds each lead variable's sample, squares each index's
	// Σ rows² over its first-level keys.
	samples map[string]*sample
	squares map[*core.Index]int64
	priced  int
}

// sample is the first-level keys a lead variable is priced on.
type sample struct {
	heavy   []int64 // the heaviest keys, heaviest first
	strided []int64 // every stride-th other key, ascending
}

func key(gao []string) string { return strings.Join(gao, ",") }

// cheapest prices orders, ties going to the one listed first, and returns
// the cheapest priced to the end; nil when the budget ran out before any
// was.
func (pr *pricer) cheapest(orders [][]string) ([]string, error) {
	type cand struct {
		gao   []string
		rank  int
		proxy int64
	}
	cs := make([]cand, len(orders))
	for i, gao := range orders {
		plan, err := pr.plan(gao)
		if err != nil {
			return nil, err
		}
		cs[i] = cand{gao: gao, rank: i, proxy: pr.proxy(plan)}
	}
	slices.SortStableFunc(cs, func(a, b cand) int { return cmp.Compare(a.proxy, b.proxy) })
	best, bestRank, bound := []string(nil), 0, unpriced
	for _, c := range cs {
		p, ok := pr.prices[key(c.gao)]
		if !ok && pr.left > 0 {
			var err error
			if p, ok, err = pr.price(c.gao, bound); err != nil {
				return nil, err
			}
		}
		if ok && (best == nil || p < bound || p == bound && c.rank < bestRank) {
			best, bestRank, bound = c.gao, c.rank, p
		}
	}
	return best, nil
}

func (pr *pricer) plan(gao []string) (*core.Plan, error) {
	if p, ok := pr.plans[key(gao)]; ok {
		return p, nil
	}
	p, err := pr.trial.Plan(pr.q, string(LFTJ), gao)
	if err != nil {
		return nil, err
	}
	pr.plans[key(gao)] = p
	return p, nil
}

// proxy is the visit order's cheap guess at an order's price: Σ over the
// atoms of Σ rows² over the first-level keys of the index the order binds
// the atom to. It favours orders that intersect short lists, but it does
// not choose: it misprices orders whose atoms share a heavy lead.
func (pr *pricer) proxy(plan *core.Plan) int64 {
	var sum int64
	for _, a := range plan.Atoms {
		sq, ok := pr.squares[a.Index]
		if !ok {
			pr.trial.Gen().Overlay(a.Index).Runs(func(_ int64, rows int) bool {
				sq += int64(rows) * int64(rows)
				return true
			})
			pr.squares[a.Index] = sq
		}
		sum += sq
	}
	return sum
}

// price returns the sampled seek count of the order — its sample's heavy
// keys counted once and its strided keys stride times — and ok, or ok ==
// false once the running count passes bound or the seeks made pass the
// budget left. The strided keys go first, each counting stride times, so an
// order dear across the board passes the bound early; the heavy keys
// follow, heaviest first.
func (pr *pricer) price(gao []string, bound int64) (p int64, ok bool, err error) {
	pr.priced++
	plan, err := pr.plan(gao)
	if err != nil {
		return 0, false, err
	}
	s := pr.sample(plan)
	sk := lftj.NewSeeker(plan, pr.trial.Gen())
	defer sk.Close()
	run := func(k, weight int64) (bool, error) {
		n, err := sk.Seeks(core.Range{Lo: k, Hi: k + 1}, min((bound-p)/weight, pr.left))
		p += weight * n
		pr.left -= n
		return err == nil && p <= bound && pr.left >= 0, err
	}
	for _, k := range s.strided {
		if ok, err := run(k, stride); !ok {
			return p, false, err
		}
	}
	for _, k := range s.heavy {
		if ok, err := run(k, 1); !ok {
			return p, false, err
		}
	}
	pr.prices[key(gao)] = p
	return p, true, nil
}

// sample returns the keys the plan's lead variable is priced on: the
// first-level keys of every atom it leads, each weighed by the most rows it
// leads in any of them, read from merged contents (Overlay.Runs) so that
// equal contents give equal samples whatever their compaction state.
func (pr *pricer) sample(plan *core.Plan) *sample {
	lead := plan.GAO[0]
	if s, ok := pr.samples[lead]; ok {
		return s
	}
	type run struct {
		key  int64
		rows int
	}
	var runs, next []run
	gen := pr.trial.Gen()
	for _, a := range plan.Atoms {
		if a.VarPos[0] != 0 {
			continue
		}
		// Merge the atom's runs into the ones so far, both in key order.
		next = next[:0]
		i := 0
		gen.Overlay(a.Index).Runs(func(k int64, rows int) bool {
			for ; i < len(runs) && runs[i].key < k; i++ {
				next = append(next, runs[i])
			}
			if i < len(runs) && runs[i].key == k {
				rows = max(rows, runs[i].rows)
				i++
			}
			next = append(next, run{k, rows})
			return true
		})
		runs, next = append(next, runs[i:]...), runs
	}
	byRows := slices.Clone(runs)
	slices.SortStableFunc(byRows, func(a, b run) int { return b.rows - a.rows })
	s := &sample{}
	heavy := make(map[int64]bool, heavyKeys)
	for _, r := range byRows[:min(heavyKeys, len(byRows))] {
		s.heavy = append(s.heavy, r.key)
		heavy[r.key] = true
	}
	i := 0
	for _, r := range runs {
		if heavy[r.key] {
			continue
		}
		if i%stride == 0 {
			s.strided = append(s.strided, r.key)
		}
		i++
	}
	pr.samples[lead] = s
	return s
}
