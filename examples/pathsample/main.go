// Command pathsample demonstrates the regime where Minesweeper beats the
// worst-case-optimal engine (paper §5.2.1 and Figures 3–5): low-selectivity
// path queries, where #Minesweeper-style caching avoids recomputing shared
// sub-path counts. It runs the 3-path query between growing node samples
// and prints the runtime series for both engines.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
	"repro/internal/dataset"
)

func main() {
	ctx := context.Background()
	g := dataset.Generate(dataset.BarabasiAlbert, 30_000, 300_000, 7)
	st := repro.NewStore()
	if err := dataset.Load(repro.Local(st), g, 1, 7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges (LiveJournal-regime stand-in)\n", g.N, len(g.Edges))
	fmt.Printf("%-10s %12s %12s %14s\n", "sample N", "lftj", "ms", "3-path count")

	// Compile the 3-path query once per engine. A Load is a write like any
	// other: it rebuilds the samples' indexes in place, so these handles
	// count each new sample below without being prepared again, and the
	// timings cover execution only.
	var handles []*repro.Prepared
	for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
		p, err := st.Prepare(repro.Paths(3), repro.Options{Algorithm: alg, Workers: 1})
		if err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		handles = append(handles, p)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 500, 2000} {
		// The 3-path query runs between the samples v1 and v2; replace both.
		for _, name := range []string{"v1", "v2"} {
			if err := st.Load(name, sample(rng, g.N, n)); err != nil {
				log.Fatal(err)
			}
		}
		var times []time.Duration
		var count int64
		for _, p := range handles {
			start := time.Now()
			c, err := p.Count(ctx)
			if err != nil {
				log.Fatalf("%s: %v", p.Algorithm(), err)
			}
			times = append(times, time.Since(start))
			count = c
		}
		fmt.Printf("%-10d %12v %12v %14d\n", n,
			times[0].Round(time.Millisecond), times[1].Round(time.Millisecond), count)
	}
	fmt.Println("\nas the samples grow, shared sub-path work grows and Minesweeper's")
	fmt.Println("caching (Ideas 5-6 + count reuse) pulls ahead of LFTJ — the paper's")
	fmt.Println("Figures 3-5 shape")
}

// sample draws k distinct vertices of 0..n-1 as unary tuples.
func sample(rng *rand.Rand, n, k int) [][]int64 {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	out := make([][]int64, k)
	for i, v := range perm {
		out[i] = []int64{int64(v)}
	}
	return out
}
