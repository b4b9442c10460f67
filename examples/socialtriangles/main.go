// Command socialtriangles reproduces the paper's motivating scenario
// (§1, §5.2.1): clique finding on social networks, where worst-case-optimal
// engines stay fast. It runs {3,4}-clique over two dataset stand-ins from
// the paper's table — a triangle-rich ego network and a triangle-poor
// peer-to-peer overlay — on LFTJ and Minesweeper, with a per-run timeout
// like the paper's protocol. The pairwise and graph-engine baselines that
// explode on the edge self-join are in go run ./cmd/benchtables -table 6.
package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()
	for _, name := range []string{"ego-Facebook", "p2p-Gnutella04"} {
		g, err := repro.Dataset(name)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("\n%s (%d nodes, %d edges)\n", name, g.Nodes(), g.Edges())
		fmt.Printf("%-10s %12s %12s\n", "engine", "3-clique", "4-clique")
		for _, alg := range []repro.Algorithm{repro.LFTJ, repro.MS} {
			fmt.Printf("%-10s", alg)
			for _, k := range []int{3, 4} {
				// Compile once outside the timed region; the timeout
				// budgets execution only, like the paper's protocol.
				p, err := g.Prepare(repro.Cliques(k), repro.Options{Algorithm: alg})
				if err != nil {
					fmt.Printf(" %12s", "err")
					continue
				}
				runCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
				start := time.Now()
				n, err := p.Count(runCtx)
				cancel()
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					fmt.Printf(" %12s", "timeout")
				case err != nil:
					fmt.Printf(" %12s", "err")
				default:
					fmt.Printf(" %6d/%5s", n, time.Since(start).Round(time.Millisecond))
				}
			}
			fmt.Println()
		}
	}
	fmt.Println("\ncells are count/duration; the paper's Table 6 adds the pairwise")
	fmt.Println("and graph-engine baselines: go run ./cmd/benchtables -table 6")
}
