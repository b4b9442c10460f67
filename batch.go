package repro

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

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
// as if they ran inside a single ReadTxn — through RunBatch. The error is
// always nil: every failure is a request's own.
//
// Requests whose engines parallelize internally (Workers != 1) compete with
// the batch's own workers; batched workloads usually prepare their queries
// with Workers: 1 and let Batch supply the parallelism.
func (s *Store) Batch(ctx context.Context, reqs []BatchRequest) ([]Result, error) {
	t := s.ReadTxn()
	defer t.Close()
	return RunBatch(ctx, t, reqs), nil
}

// RunBatch executes reqs inside t with a worker budget of GOMAXPROCS, clamped
// to the number of requests. Results are returned in request order; a failed
// request reports through its own Result.Err without aborting the rest — a
// nil or foreign handle fails through t's own check — and a cancelled context
// fails the not-yet-started requests with the context error. Rows requests
// collect owned rows, cut from shared chunks.
func RunBatch(ctx context.Context, t QueryTxn, reqs []BatchRequest) []Result {
	results := make([]Result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				res, req := &results[i], reqs[i]
				if res.Err = ctx.Err(); res.Err != nil {
					continue
				}
				if !req.Rows {
					res.Count, res.Err = Exec(ctx, t, req.Prepared, nil)
					continue
				}
				var rows rowChunk
				_, res.Err = Exec(ctx, t, req.Prepared, func(tuple []int64) bool {
					res.Rows = append(res.Rows, rows.own(tuple))
					return true
				})
				res.Count = int64(len(res.Rows))
			}
		}()
	}
	wg.Wait()
	return results
}
