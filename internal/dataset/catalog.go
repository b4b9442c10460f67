package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Spec describes one benchmark dataset: a synthetic stand-in for a SNAP
// graph (paper §5.1 table). PaperNodes/PaperEdges are the original sizes;
// Nodes/Edges are the generated sizes (the three largest graphs are scaled
// down by ScaleDiv to stay laptop-friendly — the harness prints this).
type Spec struct {
	Name       string
	Model      Model
	PaperNodes int
	PaperEdges int
	Nodes      int
	Edges      int
	ScaleDiv   int
	Seed       int64
	// Big marks the three paper datasets (Pokec, LiveJournal, Orkut) that
	// most systems time out on; the harness runs them only at larger scale
	// tiers.
	Big bool
}

// scaled builds a Spec, dividing the paper sizes by div.
func scaled(name string, model Model, nodes, edges, div int, seed int64, big bool) Spec {
	return Spec{
		Name:       name,
		Model:      model,
		PaperNodes: nodes,
		PaperEdges: edges,
		Nodes:      nodes / div,
		Edges:      edges / div,
		ScaleDiv:   div,
		Seed:       seed,
		Big:        big,
	}
}

// Catalog returns the 15 benchmark datasets in the paper's §5.1 order.
// Model assignments follow the triangle-density regimes recorded in the
// paper's dataset table (see DESIGN.md §5); div > 1 marks scaled-down
// stand-ins.
func Catalog() []Spec {
	return []Spec{
		scaled("wiki-Vote", HolmeKim, 7_115, 103_689, 1, 101, false),
		scaled("p2p-Gnutella31", ErdosRenyi, 62_586, 147_892, 1, 102, false),
		scaled("p2p-Gnutella04", ErdosRenyi, 10_876, 39_994, 1, 103, false),
		scaled("loc-Brightkite", BarabasiAlbert, 58_228, 428_156, 1, 104, false),
		scaled("ego-Facebook", HolmeKim, 4_039, 88_234, 1, 105, false),
		scaled("email-Enron", HolmeKim, 36_692, 367_662, 1, 106, false),
		scaled("ca-GrQc", HolmeKim, 5_242, 28_980, 1, 107, false),
		scaled("ca-CondMat", BarabasiAlbert, 23_133, 186_936, 1, 108, false),
		scaled("ego-Twitter", HolmeKim, 81_306, 2_420_766, 4, 109, false),
		scaled("soc-Slashdot0902", BarabasiAlbert, 82_168, 948_464, 2, 110, false),
		scaled("soc-Slashdot0811", BarabasiAlbert, 77_360, 905_468, 2, 111, false),
		scaled("soc-Epinions1", BarabasiAlbert, 75_879, 508_837, 2, 112, false),
		scaled("soc-Pokec", BarabasiAlbert, 1_632_803, 30_622_564, 40, 113, true),
		scaled("soc-LiveJournal1", BarabasiAlbert, 4_847_571, 68_993_773, 80, 114, true),
		scaled("com-Orkut", HolmeKim, 3_072_441, 117_185_083, 100, 115, true),
	}
}

// Lookup returns the catalog entry with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Build generates the spec's graph.
func (s Spec) Build() *Graph {
	return Generate(s.Model, s.Nodes, s.Edges, s.Seed)
}

// relations derives the benchmark schema of a graph: the symmetric "edge"
// relation, the oriented "fwd" relation, and the four node samples v1..v4 at
// the given selectivity (§5.1 protocol). sampleSeed controls the random
// draws so different runs can use different samples, as in the paper.
func relations(g *Graph, selectivity int, sampleSeed int64) []*relation.Relation {
	eb := relation.NewBuilder(query.Edge, 2)
	fb := relation.NewBuilder(query.Fwd, 2)
	for _, e := range g.Edges {
		eb.Add(e[0], e[1])
		eb.Add(e[1], e[0])
		fb.Add(e[0], e[1]) // a Graph holds u < v
	}
	rels := []*relation.Relation{eb.Build(), fb.Build()}
	rng := rand.New(rand.NewSource(sampleSeed))
	for _, name := range []string{query.Sample1, query.Sample2, query.Sample3, query.Sample4} {
		rels = append(rels, sampleRelation(name, g.Sample(rng, selectivity)))
	}
	return rels
}

// DB materializes the benchmark database for a graph: the relations Load
// writes, registered on a fresh core.DB.
func DB(g *Graph, selectivity int, sampleSeed int64) *core.DB {
	db := core.NewDB()
	for _, r := range relations(g, selectivity, sampleSeed) {
		db.Add(r)
	}
	return db
}

// Loader is the write surface Load needs. Every repro.Querier satisfies it:
// an in-process store (repro.Local), a client connection, a router.
type Loader interface {
	DefineRelation(name string, arity int) error
	Load(name string, tuples [][]int64) error
}

// Load defines and bulk-loads the benchmark schema of a graph through l: the
// symmetric "edge" relation, the oriented "fwd" relation, and the four node
// samples v1..v4, each vertex selected with probability 1/selectivity by
// draws seeded with sampleSeed (selectivity 1 selects every vertex).
func Load(l Loader, g *Graph, selectivity int, sampleSeed int64) error {
	for _, r := range relations(g, selectivity, sampleSeed) {
		if err := l.DefineRelation(r.Name(), r.Arity()); err != nil {
			return err
		}
		if err := l.Load(r.Name(), r.Tuples()); err != nil {
			return err
		}
	}
	return nil
}

// SampleOfSize draws exactly k distinct vertices (Figures 3–5 use absolute
// sample sizes rather than selectivities).
func (g *Graph) SampleOfSize(rng *rand.Rand, k int) []int64 {
	if k >= g.N {
		out := make([]int64, g.N)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	perm := rng.Perm(g.N)[:k]
	out := make([]int64, k)
	for i, v := range perm {
		out[i] = int64(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sampleRelation builds one unary sample relation.
func sampleRelation(name string, vals []int64) *relation.Relation {
	sb := relation.NewBuilder(name, 1)
	for _, v := range vals {
		sb.Add(v)
	}
	return sb.Build()
}

// ReplaceSample swaps one named unary sample relation in place (the figure
// sweeps grow samples without rebuilding edge indexes).
func ReplaceSample(db *core.DB, name string, vals []int64) {
	db.Add(sampleRelation(name, vals))
}

// ReplaceSamples swaps the v1/v2 samples of an existing database in one
// atomic registration, so concurrent snapshot leases never observe one
// sample generation mixed with another.
func ReplaceSamples(db *core.DB, v1, v2 []int64) {
	db.AddAll([]*relation.Relation{
		sampleRelation(query.Sample1, v1),
		sampleRelation(query.Sample2, v2),
	})
}
