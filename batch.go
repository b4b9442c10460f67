package repro

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Request is one unit of a Batch: a prepared query to execute, optionally
// collecting its result tuples alongside the count.
type Request struct {
	// Prepared is the compiled query to execute; it must have been prepared
	// on the store being batched.
	Prepared *Prepared
	// Rows, when true, collects the result tuples (in output order — the
	// head variables then any aggregate values) into the Result as well as
	// counting them. Leave false for
	// count-only workloads — collection materializes the whole result.
	Rows bool
}

// Result is the outcome of one batched request.
type Result struct {
	// Count is the number of result tuples.
	Count int64
	// Rows holds the result tuples when the request asked for them.
	Rows [][]int64
	// Err is the per-request failure; other requests in the batch are
	// unaffected.
	Err error
}

// Batch executes many prepared queries concurrently against one shared
// snapshot of the store — all requests observe the same index state, exactly
// as if they ran inside a single ReadTxn — with a worker budget of
// GOMAXPROCS. Results are returned in request order; a failed request
// reports through its own Result.Err without aborting the rest, and a
// cancelled context fails the not-yet-started requests with the context
// error.
//
// Requests whose engines parallelize internally (Workers != 1) compete with
// the batch's own workers; batched workloads usually prepare their queries
// with Workers: 1 and let Batch supply the parallelism.
func (s *Store) Batch(ctx context.Context, reqs []Request) []Result {
	return s.BatchWorkers(ctx, reqs, 0)
}

// BatchWorkers is Batch with an explicit worker budget (0 means GOMAXPROCS;
// the budget is clamped to the number of requests).
func (s *Store) BatchWorkers(ctx context.Context, reqs []Request, workers int) []Result {
	results := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	txn := s.ReadTxn()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = Result{Err: err}
					continue
				}
				results[i] = runRequest(ctx, txn, reqs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// runRequest executes one request inside the shared transaction.
func runRequest(ctx context.Context, txn *Txn, req Request) Result {
	if !req.Rows {
		n, err := txn.Count(ctx, req.Prepared)
		return Result{Count: n, Err: err}
	}
	var res Result
	var rows rowChunk
	res.Err = txn.Enumerate(ctx, req.Prepared, func(t []int64) bool {
		res.Rows = append(res.Rows, rows.own(t))
		return true
	})
	res.Count = int64(len(res.Rows))
	return res
}
