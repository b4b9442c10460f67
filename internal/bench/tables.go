package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// ablationBase are the Minesweeper options with Idea 4 and the counting
// reuse disabled — the baseline for Tables 1–2. The count-mode reuse is off
// in every variant so the measured effect is the CDS machinery itself. The
// paper's Idea 6 (complete nodes) has no row: the CDS does not implement it
// (docs/ARCHITECTURE.md, "Minesweeper CDS").
var ablationBase = minesweeper.Options{DisableMemo: true, DisableCountMemo: true}

// Table1 regenerates the paper's Table 1: the speedup ratio of Minesweeper
// when Idea 4 (probe memoization) is incorporated, on the acyclic queries
// 2-comb, 3-path, 4-path.
func (h *Harness) Table1() error {
	return h.ideaSpeedupTable("Table 1: speedup from Idea 4 (selectivity 100)", 100)
}

// Table2 regenerates the paper's Table 2: the Idea 4 speedups at
// selectivity 10.
func (h *Harness) Table2() error {
	return h.ideaSpeedupTable("Table 2: speedup from Idea 4 (selectivity 10)", 10)
}

func (h *Harness) ideaSpeedupTable(title string, sel int) error {
	sets := h.cfg.datasets()
	queries := []*query.Query{query.Comb(), query.Path(3), query.Path(4)}
	m := newMatrix(title, "query", sets)
	idea4 := ablationBase
	idea4.DisableMemo = false
	for _, q := range queries {
		r4 := m.addRow(q.Name + " idea4")
		for j, name := range sets {
			s, err := h.site(name)
			if err != nil {
				return err
			}
			h.setSelectivity(s, sel)
			base := h.run(msOptions(ablationBase, 1), q, s.db)
			with4 := h.run(msOptions(idea4, 1), q, s.db)
			m.set(r4, j, ratio(base, with4))
		}
	}
	m.note("cells are t(no ideas)/t(with ideas); count-mode reuse disabled throughout")
	m.write(h.cfg.Out)
	return nil
}

// Table3 regenerates the paper's Table 3: the speedup from Idea 7 (gap
// skipping via the β-acyclic skeleton) on the cyclic queries.
func (h *Harness) Table3() error {
	sets := h.cfg.datasets()
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Cycle(4)}
	m := newMatrix("Table 3: speedup from Idea 7 (β-acyclic skeleton)", "query", sets)
	noSkel := minesweeper.Options{DisableSkeleton: true}
	for _, q := range queries {
		r := m.addRow(q.Name)
		for j, name := range sets {
			s, err := h.site(name)
			if err != nil {
				return err
			}
			base := h.run(msOptions(noSkel, 1), q, s.db)
			with := h.run(msOptions(minesweeper.Options{}, 1), q, s.db)
			m.set(r, j, ratio(base, with))
		}
	}
	m.note(`"inf" = the no-skeleton baseline timed out (the paper prints ∞ for thrashing)`)
	m.write(h.cfg.Out)
	return nil
}

// table4GAOs are the paper's seven representative attribute orders for the
// 4-path query: five NEOs and two non-NEOs.
var table4GAOs = []string{"abcde", "bacde", "bcade", "cbade", "cbdae", "abdce", "badce"}

// Table4 regenerates the paper's Table 4: Minesweeper runtimes on 4-path
// under NEO and non-NEO global attribute orders.
func (h *Harness) Table4() error {
	sets := h.cfg.datasets()
	cols := make([]string, len(table4GAOs)+1)
	for i, g := range table4GAOs {
		label := g
		if i < 5 {
			label = g + "*" // NEO marker
		}
		cols[i] = label
	}
	cols[len(cols)-1] = "edges"
	m := newMatrix("Table 4: Minesweeper on 4-path under different GAOs (seconds; * = NEO)", "dataset", cols)
	q := query.Path(4)
	for _, name := range sets {
		s, err := h.site(name)
		if err != nil {
			return err
		}
		h.setSelectivity(s, 10)
		r := m.addRow(name)
		for j, gao := range table4GAOs {
			opts := engine.Options{Algorithm: engine.MS, GAO: letters(gao), Workers: 1}
			m.set(r, j, h.run(opts, q, s.db).String())
		}
		m.set(r, len(cols)-1, fmt.Sprintf("%d", len(s.g.Edges)))
	}
	m.note("non-NEO orders run through the cache-free fallback and are expected to be much slower")
	m.write(h.cfg.Out)
	return nil
}

func letters(s string) []string {
	out := make([]string, len(s))
	for i, r := range s {
		out[i] = string(r)
	}
	return out
}

// table5Granularities are the paper's partition granularity factors.
var table5Granularities = []int{1, 2, 3, 4, 8, 12, 14}

// Table5 regenerates the paper's Table 5: average normalized runtime of
// parallel Minesweeper across the partition granularity factor f.
func (h *Harness) Table5() error {
	sets := h.cfg.datasets()
	if len(sets) > 4 {
		sets = sets[:4] // a handful of sets is enough for the average
	}
	queries := []*query.Query{
		query.Path(3), query.Path(4), query.Comb(),
		query.Clique(3), query.Clique(4), query.Cycle(4),
	}
	cols := make([]string, len(table5Granularities))
	for i, f := range table5Granularities {
		cols[i] = fmt.Sprintf("f=%d", f)
	}
	m := newMatrix("Table 5: normalized runtime vs partition granularity (parallel Minesweeper)", "query", cols)
	for _, q := range queries {
		r := m.addRow(q.Name)
		sums := make([]float64, len(table5Granularities))
		counts := make([]int, len(table5Granularities))
		for _, name := range sets {
			s, err := h.site(name)
			if err != nil {
				return err
			}
			h.setSelectivity(s, 10)
			var baseline float64
			for fi, f := range table5Granularities {
				opts := engine.Options{Algorithm: engine.MS, Granularity: f, Workers: h.cfg.Workers}
				res := h.run(opts, q, s.db)
				if res.status != ok {
					continue
				}
				if fi == 0 {
					baseline = res.seconds
				}
				if baseline > 0 {
					sums[fi] += res.seconds / baseline
					counts[fi]++
				}
			}
		}
		for fi := range table5Granularities {
			if counts[fi] > 0 {
				m.set(r, fi, fmt.Sprintf("%.2f", sums[fi]/float64(counts[fi])))
			} else {
				m.set(r, fi, "-")
			}
		}
	}
	m.note("cells are t(f)/t(f=1) averaged over %d datasets; the paper found f≈1 best for acyclic and f≈4-8 best for cyclic queries", len(sets))
	m.write(h.cfg.Out)
	return nil
}

// table6Engines are the systems compared on cyclic queries. Virtuoso and
// Neo4j are closed-source; EXPERIMENTS.md documents the substitution.
var table6Engines = []engine.Algorithm{engine.LFTJ, engine.MS, PSQL, MonetDB, GraphLab}

// Table6 regenerates the paper's Table 6: durations of the cyclic queries
// {3,4}-clique and 4-cycle across systems.
func (h *Harness) Table6() error {
	sets := h.cfg.datasets()
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Cycle(4)}
	m := newMatrix("Table 6: cyclic queries (seconds; - = timeout, mem = budget exceeded)", "query/engine", sets)
	for _, q := range queries {
		for _, alg := range table6Engines {
			r := m.addRow(q.Name + " " + string(alg))
			for j, name := range sets {
				s, err := h.site(name)
				if err != nil {
					return err
				}
				res := h.run(engine.Options{Algorithm: alg, Workers: h.cfg.Workers}, q, s.db)
				m.set(r, j, res.String())
			}
		}
	}
	m.note("lftj and ms are the paper's lb/lftj and lb/ms; graphlab supports cliques only")
	m.write(h.cfg.Out)
	return nil
}

// table7Selectivities maps the dataset tier to the paper's selectivity grid
// (§5.1: 8/80 for small sets, 10/100/1000 for the rest).
func (h *Harness) table7Selectivities() []int {
	if h.cfg.Scale == "small" {
		return []int{80, 8}
	}
	return []int{1000, 100, 10}
}

// Table7 regenerates the paper's Table 7: the acyclic and lollipop queries
// under varying selectivities across systems.
func (h *Harness) Table7() error {
	sets := h.cfg.datasets()
	sels := h.table7Selectivities()
	queries := []*query.Query{
		query.Path(3), query.Path(4),
		query.Tree(1), query.Tree(2), query.Comb(),
		query.Lollipop(2), query.Lollipop(3),
	}
	for _, q := range queries {
		lollipop := q.Name == "2-lollipop" || q.Name == "3-lollipop"
		engines := []engine.Algorithm{engine.LFTJ, engine.MS}
		if !lollipop {
			engines = append(engines, Yannakakis)
		}
		engines = append(engines, PSQL, MonetDB)
		m := newMatrix(fmt.Sprintf("Table 7 (%s): seconds by selectivity", q.Name), "engine/sel", sets)
		memo, cells := 0, 0 // lftj cells, and those whose plan memoises
		for _, alg := range engines {
			for _, sel := range sels {
				r := m.addRow(fmt.Sprintf("%s s=%d", alg, sel))
				for j, name := range sets {
					s, err := h.site(name)
					if err != nil {
						return err
					}
					h.setSelectivity(s, sel)
					res := h.run(engine.Options{Algorithm: alg, Workers: h.cfg.Workers}, q, s.db)
					m.set(r, j, res.String())
					if alg == engine.LFTJ {
						cells++
						if res.memo {
							memo++
						}
					}
				}
			}
		}
		if lollipop {
			m.note(fmt.Sprintf("in %d of its %d cells lftj's order memoises the clique's count once per attachment vertex, §4.12's lb/hybrid computation", memo, cells))
		} else {
			m.note("yannakakis stands in for a classical acyclic-join yardstick")
		}
		m.write(h.cfg.Out)
	}
	return nil
}
