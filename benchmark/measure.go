package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// deployment is one set-up system under test: op runs one verified
// operation of the workload for the given client and returns an error when
// the operation failed, was refused, or answered wrongly.
type deployment interface {
	op(ctx context.Context, client int) error
	// counters snapshots the cumulative public counters of the layers this
	// deployment exercises (nil when it has none).
	counters() map[string]float64
	// close tears the deployment down. An error means the deployment's final
	// state was wrong (durable recovery), which fails the segment's ops.
	close() error
}

// usage is a snapshot of the process-wide resource counters a measured
// window is the difference of.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system, all threads: client and server
	mallocs  uint64
	bytes    uint64
	gcPause  time.Duration
	gcCPUSec float64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcPause:  time.Duration(ms.PauseTotalNs),
		gcCPUSec: gc[0].Value.Float64(),
	}
}

// liveHeap is the heap in use after a full collection. Two cycles, so that
// objects freed by finalizers and sync.Pool victims of the first are gone.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loopResult is one closed-loop window.
type loopResult struct {
	attempted int
	failed    int
	firstErr  error
	lat       []time.Duration // latency of every attempted operation
	clients   int
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcPause   time.Duration
	gcCPU     time.Duration
}

func (r loopResult) ok() int { return r.attempted - r.failed }

// keptShare is the share of a window's operations, its fastest, that
// opsPerSec is taken over.
const keptShare = 0.95

// opsPerSec is the throughput the closed loop sustains with the slowest 5 %
// of the window's operations set aside: clients / mean latency of the other
// 95 %, times the share of operations that were verified. A client sends its
// next operation when the last was answered, so clients / mean latency of
// all of them is operations / wall time (wallOpsPerSec); the trimmed mean
// leaves out the operations during which the shared machine took a core away
// for milliseconds, which move operations / wall time by a tenth from one run
// to the next and the median latency not at all.
func (r loopResult) opsPerSec() float64 {
	if len(r.lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	s = s[:max(1, int(keptShare*float64(len(s))))]
	var busy time.Duration
	for _, l := range s {
		busy += l
	}
	return ratio(float64(r.clients*len(s)), busy.Seconds()) * ratio(float64(r.ok()), float64(r.attempted))
}

// wallOpsPerSec is verified operations / wall time, every stall included.
func (r loopResult) wallOpsPerSec() float64 { return ratio(float64(r.ok()), r.wall.Seconds()) }

// runLoop drives the deployment with a fixed number of clients, each sending
// its next operation only when the previous one has been answered and
// checked, until the window has lasted dur. With a recorder every operation
// runs inside its own trace context.
func runLoop(ctx context.Context, d deployment, clients int, dur time.Duration, rec *recorder) loopResult {
	var res loopResult
	perClient := make([]loopResult, clients)
	before := readUsage()
	deadline := before.at.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &perClient[c]
			for time.Now().Before(deadline) {
				opCtx, sp := ctx, (*openSpan)(nil)
				if rec != nil {
					opCtx, sp = rec.startOp(ctx)
				}
				t0 := time.Now()
				err := d.op(opCtx, c)
				r.lat = append(r.lat, time.Since(t0))
				if sp != nil {
					sp.end(0)
				}
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	after := readUsage()
	for _, r := range perClient {
		res.attempted += r.attempted
		res.failed += r.failed
		res.lat = append(res.lat, r.lat...)
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
	}
	res.clients = clients
	res.wall = after.at.Sub(before.at)
	res.cpu = after.cpu - before.cpu
	res.mallocs = after.mallocs - before.mallocs
	res.bytes = after.bytes - before.bytes
	res.gcPause = after.gcPause - before.gcPause
	res.gcCPU = time.Duration((after.gcCPUSec - before.gcCPUSec) * float64(time.Second))
	return res
}

// failAll marks every operation of the window failed: the deployment's
// final state was wrong, so none of its answers can be trusted.
func (r *loopResult) failAll(err error) {
	r.failed = r.attempted
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank quantile of the durations (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func medianDur(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timeN runs f n times and returns the median duration of one call.
func timeN(n int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDur(ds), nil
}

// allocsPer is the number of heap allocations one call of f makes, averaged
// over n calls on an otherwise idle process.
func allocsPer(n int, f func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), nil
}

func wrong(what string, got, want any) error {
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
