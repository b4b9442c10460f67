package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
)

// figureSampleSizes is the x-axis of Figures 3–5 (node-sample sizes).
var figureSampleSizes = []int{1, 10, 100, 1000, 10000}

// figurePathEngines are the series of Figures 3–5.
var figurePathEngines = []engine.Algorithm{engine.LFTJ, engine.MS, PSQL}

// FigurePathScaling regenerates Figures 3–5: 3-path runtime as the node
// samples grow, on the LiveJournal (Figure 3), Pokec (Figure 4) and Orkut
// (Figure 5) stand-ins. figure selects 3, 4 or 5.
func (h *Harness) FigurePathScaling(figure int) error {
	var name string
	switch figure {
	case 3:
		name = "soc-LiveJournal1"
	case 4:
		name = "soc-Pokec"
	case 5:
		name = "com-Orkut"
	default:
		return fmt.Errorf("bench: FigurePathScaling(%d): figure must be 3, 4 or 5", figure)
	}
	s, err := h.site(name)
	if err != nil {
		return err
	}
	cols := make([]string, len(figurePathEngines))
	for i, a := range figurePathEngines {
		cols[i] = string(a)
	}
	ser := newSeries(
		fmt.Sprintf("Figure %d: 3-path on %s stand-in, seconds vs sample size", figure, name),
		"N nodes", cols)
	q := query.Path(3)
	rng := rand.New(rand.NewSource(h.cfg.SampleSeed))
	for _, n := range figureSampleSizes {
		if n > s.g.N {
			break
		}
		v1 := s.g.SampleOfSize(rng, n)
		v2 := s.g.SampleOfSize(rng, n)
		dataset.ReplaceSamples(s.db, v1, v2)
		xi := ser.addX(fmt.Sprintf("%d", n))
		for j, alg := range figurePathEngines {
			res := h.run(engine.Options{Algorithm: alg, Workers: h.cfg.Workers}, q, s.db)
			ser.set(xi, j, res.String())
		}
	}
	ser.note("the paper's shape: ms flattens with growing samples (caching); lftj grows steeply; psql sits between until it times out")
	ser.write(h.cfg.Out)
	return nil
}

// figureCliqueEngines are the series of Figures 6–7. RedShift and System HC
// from the paper are closed-source; psql/monetdb and the yannakakis engine
// (acyclic-only, hence n/a on cliques and shown for transparency) stand in.
var figureCliqueEngines = []engine.Algorithm{engine.LFTJ, engine.MS, PSQL, MonetDB, GraphLab}

// FigureCliqueScaling regenerates Figures 6–7: {3,4}-clique runtime on
// growing edge prefixes of the LiveJournal stand-in. figure selects 6
// (3-clique) or 7 (4-clique).
func (h *Harness) FigureCliqueScaling(figure int) error {
	var k int
	switch figure {
	case 6:
		k = 3
	case 7:
		k = 4
	default:
		return fmt.Errorf("bench: FigureCliqueScaling(%d): figure must be 6 or 7", figure)
	}
	s, err := h.site("soc-LiveJournal1")
	if err != nil {
		return err
	}
	cols := make([]string, len(figureCliqueEngines))
	for i, a := range figureCliqueEngines {
		cols[i] = string(a)
	}
	ser := newSeries(
		fmt.Sprintf("Figure %d: %d-clique on LiveJournal stand-in, seconds vs edge count", figure, k),
		"N edges", cols)
	q := query.Clique(k)
	for n := 1000; ; n *= 4 {
		sub := s.g.EdgePrefix(n)
		db := dataset.DB(sub, 1, h.cfg.SampleSeed)
		xi := ser.addX(fmt.Sprintf("%d", len(sub.Edges)))
		for j, alg := range figureCliqueEngines {
			res := h.run(engine.Options{Algorithm: alg, Workers: h.cfg.Workers}, q, db)
			ser.set(xi, j, res.String())
		}
		if n >= len(s.g.Edges) {
			break
		}
	}
	ser.note("the paper's shape: pairwise engines fall over orders of magnitude earlier; optimal joins handle ~100x more edges; graphlab leads on raw clique counting")
	ser.write(h.cfg.Out)
	return nil
}
