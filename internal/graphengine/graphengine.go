// Package graphengine is the reproduction's stand-in for GraphLab (§5.1):
// a hand-specialized, parallel clique counter over a degree-ordered
// compressed adjacency, the strongest baseline the paper reports for
// {3,4}-clique. Like GraphLab in the paper — whose coverage the authors
// could not confidently extend beyond cliques — it implements exactly the
// 3-clique and 4-clique patterns and rejects everything else.
package graphengine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/query"
)

// Engine is the specialized clique-counting engine.
type Engine struct {
	// Workers overrides the parallelism (0 = GOMAXPROCS, mirroring the
	// paper's graphlab ncpus=8 tuning).
	Workers int
}

// csr is a forward adjacency: for each vertex, its oriented neighbors
// (u < v), sorted.
type csr struct {
	ids []int64 // sorted vertex ids with outgoing edges
	adj map[int64][]int64
}

func buildCSR(db *core.DB) (*csr, error) {
	fwd, err := db.Relation(query.Fwd)
	if err != nil {
		return nil, err
	}
	if fwd.Arity() != 2 {
		return nil, fmt.Errorf("graphengine: %s must be binary", query.Fwd)
	}
	g := &csr{adj: make(map[int64][]int64)}
	for i := 0; i < fwd.Len(); i++ {
		u, v := fwd.Value(i, 0), fwd.Value(i, 1)
		g.adj[u] = append(g.adj[u], v)
	}
	for u, vs := range g.adj {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		g.adj[u] = vs
		g.ids = append(g.ids, u)
	}
	sort.Slice(g.ids, func(i, j int) bool { return g.ids[i] < g.ids[j] })
	return g, nil
}

// intersectCount returns |a ∩ b| for sorted slices.
func intersectCount(a, b []int64) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// intersect returns a ∩ b for sorted slices.
func intersect(a, b []int64, out []int64) []int64 {
	out = out[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Count counts the 3-clique and 4-clique patterns; all other queries are
// rejected, mirroring the paper's GraphLab coverage. Like the paper's
// GraphLab programs it is count-only.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	var k int
	switch q.Name {
	case "3-clique":
		k = 3
	case "4-clique":
		k = 4
	default:
		return 0, fmt.Errorf("graphengine: query %q not implemented (3-clique and 4-clique only)", q.Name)
	}
	g, err := buildCSR(db)
	if err != nil {
		return 0, err
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Never more workers than vertices to claim: Workers arrives unchecked
	// from clients, and each worker is a goroutine.
	workers = min(workers, max(len(g.ids), 1))
	var total atomic.Int64
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var errOnce sync.Once
	var runErr error
	next := atomic.Int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local int64
			var wbuf []int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.ids) {
					break
				}
				if ctx.Err() != nil {
					errOnce.Do(func() { runErr = ctx.Err() })
					return
				}
				u := g.ids[i]
				nu := g.adj[u]
				for _, v := range nu {
					nv := g.adj[v]
					if k == 3 {
						local += intersectCount(nu, nv)
						continue
					}
					wbuf = intersect(nu, nv, wbuf)
					for wi, w := range wbuf {
						// Members of wbuf after wi are > w and adjacent to
						// both u and v; count those also adjacent to w.
						local += intersectCount(wbuf[wi+1:], g.adj[w])
					}
				}
			}
			total.Add(local)
		}()
	}
	wg.Wait()
	if runErr != nil {
		return 0, runErr
	}
	return total.Load(), nil
}
