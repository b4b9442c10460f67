// Command quickstart is the smallest end-to-end use of the library around
// its prepare/execute lifecycle: load a graph into a store, compile a
// pattern query once, then execute the compiled plan repeatedly — counting,
// streaming rows, and reading the unified execution counters.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/dataset"
)

func main() {
	ctx := context.Background()

	// A scale-free social-network stand-in: 20k vertices, ~100k edges. Its
	// benchmark schema — "edge" (both directions), "fwd" (u < v) and the
	// node samples v1..v4 — is ordinary data in an ordinary store.
	g := dataset.Generate(dataset.BarabasiAlbert, 20_000, 100_000, 42)
	fmt.Printf("graph: %d nodes, %d edges\n", g.N, len(g.Edges))
	st := repro.NewStore()
	if err := dataset.Load(repro.Local(st), g, 1, 42); err != nil {
		log.Fatal(err)
	}

	// Prepare compiles the query once: it is validated, the global
	// attribute order (GAO) is fixed, and every atom is bound to a
	// GAO-consistent index (paper §4.1). The handle is safe to share and
	// every execution below is pure — no re-planning, no re-binding.
	q := repro.Triangles()
	p, err := st.Prepare(q, repro.Options{Algorithm: "lftj"})
	if err != nil {
		log.Fatal(err)
	}

	// Explain shows what was compiled: the GAO, the physical index serving
	// each atom, and the AGM worst-case output bound LFTJ is optimal
	// against.
	fmt.Print(p.Explain())

	// Execute the compiled plan. Repeated executions reuse the plan — the
	// serving pattern the paper's LogicBlox setting assumes.
	start := time.Now()
	n, err := p.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d triangles in %v\n", n, time.Since(start).Round(time.Millisecond))

	// Rows streams results as a Go iterator; break stops the engine early.
	shown := 0
	for row := range p.Rows(ctx) {
		fmt.Printf("  triangle %v\n", row)
		if shown++; shown == 3 {
			break
		}
	}

	// The unified stats surface aggregates across executions: the planning
	// counters stayed where Prepare left them, the execution counters grew.
	s := p.Stats()
	fmt.Printf("stats: %d executions, %d outputs, %d leapfrog seeks (GAO derived %dx, indexes bound %dx)\n",
		s.Executions, s.Outputs, s.Seeks, s.GAODerivations, s.IndexBindings)

	// One-shot helpers still exist for quick comparisons; each prepares
	// internally (hitting the plan cache for repeated shapes). The paper's
	// baseline systems are compared in go run ./cmd/benchtables -table 6.
	for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
		start := time.Now()
		n, err := st.Count(ctx, q, repro.Options{Algorithm: alg})
		if err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		fmt.Printf("%-9s %8d triangles in %v\n", alg, n, time.Since(start).Round(time.Millisecond))
	}

	// Queries can also be written in the paper's Datalog syntax, checked
	// against the store's schema.
	custom, err := st.ParseQuery("wedge", "edge(a, b), edge(b, c)")
	if err != nil {
		log.Fatal(err)
	}
	wedges, err := st.Prepare(custom, repro.Options{Algorithm: "lftj"})
	if err != nil {
		log.Fatal(err)
	}
	nw, err := wedges.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wedges (2-paths): %d\n", nw)
}
