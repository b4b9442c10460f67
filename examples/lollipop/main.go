// Command lollipop runs the paper's §4.12 experiment: lollipop queries
// (a path feeding into a clique) stress both engines in different ways —
// Minesweeper suffers on the clique part, LFTJ on the path part. The paper's
// hybrid, which runs Minesweeper on the path and LFTJ on the clique and
// beats both, is a baseline of the benchmark harness:
// go run ./cmd/benchtables -table 7 prints it beside the two engines.
package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/dataset"
)

func main() {
	ctx := context.Background()
	g := dataset.Generate(dataset.HolmeKim, 8_000, 50_000, 11)
	st := repro.NewStore()
	if err := dataset.Load(repro.Local(st), g, 10, 3); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("graph: %d nodes, %d edges, selectivity 10\n\n", g.N, len(g.Edges))

	for _, i := range []int{2, 3} {
		q := repro.Lollipops(i)
		fmt.Printf("%s: %s\n", q.Name, q)
		for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
			p, err := st.Prepare(q, repro.Options{Algorithm: alg, Workers: 1})
			if err != nil {
				fmt.Printf("  %-8s error: %v\n", alg, err)
				continue
			}
			runCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			start := time.Now()
			n, err := p.Count(runCtx)
			cancel()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Printf("  %-8s timeout\n", alg)
			case err != nil:
				fmt.Printf("  %-8s error: %v\n", alg, err)
			default:
				fmt.Printf("  %-8s %12d results in %v\n", alg, n, time.Since(start).Round(time.Millisecond))
			}
		}
		fmt.Println()
	}
}
