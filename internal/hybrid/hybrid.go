// Package hybrid implements the paper's §4.12 combination algorithm for
// lollipop queries: Minesweeper-style evaluation of the β-acyclic path part
// (benefiting from Ideas 5–6 caching on the path attributes) and Leapfrog
// Triejoin for the clique part, with the clique count memoized per
// attachment vertex — "all gaps are used to advance the frontier" on the
// clique side. Because the two parts share exactly one variable, the total
// is Σ over path bindings of cliqueCount(attachment).
package hybrid

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/lftj"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// Engine is the hybrid engine. It accepts queries that split into a
// β-acyclic part and a remainder sharing a single attachment variable — the
// paper's {2,3}-lollipop shapes. Splits are detected automatically.
type Engine struct{}

// Split describes the decomposition of a query.
type split struct {
	pathAtoms   []query.Atom
	cliqueAtoms []query.Atom
	attachment  string
}

// splitQuery partitions atoms into the longest chain-valid (β-acyclic)
// prefix whose remainder shares exactly one variable with it — the lollipop
// shape: the path part up to and including the attachment vertex, and the
// clique hanging off it. Queries without such a split are rejected.
func splitQuery(q *query.Query) (*split, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Atoms) < 2 {
		return nil, fmt.Errorf("hybrid: query %q has no split point", q.Name)
	}
	for k := len(q.Atoms) - 1; k >= 1; k-- {
		path := q.Atoms[:k]
		clique := q.Atoms[k:]
		if !hypergraph.BetaAcyclic(path) {
			continue
		}
		inPath := make(map[string]bool)
		for _, v := range varsOf(path) {
			inPath[v] = true
		}
		var shared []string
		for _, v := range varsOf(clique) {
			if inPath[v] {
				shared = append(shared, v)
			}
		}
		// The remainder must be genuinely cyclic — otherwise the whole query
		// is β-acyclic and Minesweeper alone is the right tool (§5.2.2).
		if len(shared) == 1 && !hypergraph.BetaAcyclic(clique) {
			return &split{pathAtoms: path, cliqueAtoms: clique, attachment: shared[0]}, nil
		}
	}
	return nil, fmt.Errorf("hybrid: query %q has no path/clique split with a single attachment variable", q.Name)
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

// plans compiles the two halves of q once, before anything runs: the path
// part for Minesweeper, and the clique part for LFTJ under an order that
// leads with the attachment, so each attachment value is one first-variable
// range of it.
func plans(q *query.Query, db *core.DB) (sp *split, path, clique *core.Plan, err error) {
	if sp, err = splitQuery(q); err != nil {
		return nil, nil, nil, err
	}
	pathQ := query.New(q.Name+"/path", sp.pathAtoms...)
	if path, err = engine.Compile(engine.Options{Algorithm: engine.MS}, pathQ, db); err != nil {
		return nil, nil, nil, err
	}
	cliqueQ := query.New(q.Name+"/clique", sp.cliqueAtoms...)
	gao := append([]string{sp.attachment}, others(cliqueQ.Vars(), sp.attachment)...)
	if clique, err = engine.Compile(engine.Options{Algorithm: engine.LFTJ, GAO: gao}, cliqueQ, db); err != nil {
		return nil, nil, nil, err
	}
	return sp, path, clique, nil
}

// attachment returns the range of the clique plan holding one attachment
// value.
func attachment(v int64) core.Range { return core.Range{Lo: v, Hi: v + 1} }

// Count returns the number of result tuples of the lollipop query q: Σ
// over the path part's bindings of the clique count at their attachment.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	sp, path, clique, err := plans(q, db)
	if err != nil {
		return 0, err
	}
	// Both halves read one generation, so a concurrent write cannot land
	// between them.
	gen := db.Pin()
	// Path part: enumerate with Minesweeper, counting bindings per
	// attachment value. Enumerating (rather than counting) is required: the
	// multiplier differs per attachment vertex.
	attachIdx := slices.Index(path.Query.Vars(), sp.attachment)
	pathCounts := make(map[int64]int64)
	if _, err := minesweeper.Run(ctx, path, gen, minesweeper.Options{}, core.FullRange, nil, func(t []int64) bool {
		pathCounts[t[attachIdx]]++
		return true
	}); err != nil {
		return 0, err
	}

	// Clique part: LFTJ restricted to each needed attachment value, memoized
	// ("Idea 7 implemented completely on the clique part").
	var total int64
	for v, mult := range pathCounts {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cnt, err := lftj.Run(ctx, clique, gen, attachment(v), nil, nil)
		if err != nil {
			return 0, err
		}
		total += mult * cnt
	}
	return total, nil
}

func others(vars []string, skip string) []string {
	var out []string
	for _, v := range vars {
		if v != skip {
			out = append(out, v)
		}
	}
	return out
}
