// Command analytics demonstrates the unification the paper argues for
// (§1: "it would be desirable to have one engine that is able to perform
// well for join processing in both of these different analytics settings"):
// pattern matching through the join engines and navigational/graph-style
// processing (the paper's §6 future work: BFS, shortest paths, PageRank)
// over the same relational substrate.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/dataset"
	"repro/internal/graphalgo"
)

func main() {
	ctx := context.Background()
	g := dataset.Generate(dataset.HolmeKim, 5_000, 30_000, 19)
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.N, len(g.Edges))
	st := repro.NewStore()
	if err := dataset.Load(repro.Local(st), g, 1, 19); err != nil {
		log.Fatal(err)
	}

	// Relational side: pattern counting with the worst-case-optimal join.
	// Each query is compiled once; the handles stay valid for the life of
	// the store's physical design and can be executed again at will.
	triQ, err := st.Prepare(repro.Triangles(), repro.Options{Algorithm: "lftj"})
	if err != nil {
		log.Fatal(err)
	}
	cycQ, err := st.Prepare(repro.Cycles(4), repro.Options{Algorithm: "lftj"})
	if err != nil {
		log.Fatal(err)
	}
	tri, err := triQ.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	cycles, err := cycQ.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patterns: %d triangles, %d ordered 4-cycles\n", tri, cycles)

	// Navigational side: the same edge relation drives graph algorithms.
	adj, err := graphalgo.BuildAdjacency(st.DB())
	if err != nil {
		log.Fatal(err)
	}
	dist, err := adj.BFS(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	maxHop, reached := 0, 0
	for _, d := range dist {
		reached++
		if d > maxHop {
			maxHop = d
		}
	}
	fmt.Printf("BFS from 0: %d reachable, eccentricity %d\n", reached, maxHop)

	if path, ok, _ := adj.ShortestPath(ctx, 0, int64(g.N-1)); ok {
		fmt.Printf("shortest path 0 -> %d: %d hops\n", g.N-1, len(path)-1)
	}

	rank, err := adj.PageRank(ctx, 0.85, 30)
	if err != nil {
		log.Fatal(err)
	}
	type vr struct {
		v int64
		r float64
	}
	top := make([]vr, 0, len(rank))
	for v, r := range rank {
		top = append(top, vr{v, r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("top-5 PageRank vertices:")
	for _, e := range top[:5] {
		fmt.Printf("  node %-6d %.5f\n", e.v, e.r)
	}
}
