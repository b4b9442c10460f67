package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string // "" runs every workload
	seed     int64
	seconds  int // measured seconds per workload on the untraced pass
	trace    bool
	traceOut string
	quick    bool
	// dir is where durable stores are created (and removed again).
	dir string
	// corrupt makes one expected answer wrong; the self-tests use it to show
	// that a wrong answer fails the run.
	corrupt bool
}

// defaultSeconds is the measured time per workload of a full run; it is
// run_seconds in BENCHMARK.json.
const defaultSeconds = 21

// extraSetUps is how many more times a full run sets every workload up (and
// tears it down again) only to time it: set-up takes a tenth of a second, so
// its median needs more than three samples to be steady.
const extraSetUps = 4

// Segments per workload on the untraced pass. Every segment sets the
// deployment up from nothing, warms it up un-timed and then measures; see
// endToEnd for how a run's value comes from the segment values.
const segmentsPerRun = 3

func (c *config) segments() int {
	if c.quick {
		return 1
	}
	return segmentsPerRun
}

// measured and warm are the lengths of one segment's measured window and of
// its un-timed warm-up.
func (c *config) measured() time.Duration {
	if c.quick {
		return 200 * time.Millisecond
	}
	return time.Duration(c.seconds) * time.Second / segmentsPerRun
}

func (c *config) warm() time.Duration {
	if c.quick {
		return 30 * time.Millisecond
	}
	return min(2*time.Second, c.measured()/6)
}

// n picks an iteration count for a probe: full on a real run, small under
// -quick.
func (c *config) n(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// segment is one set-up + warm-up + measured window of one workload.
type segment struct {
	setup                time.Duration
	liveHeap             uint64 // heap the set-up deployment holds: data, indexes, plans
	loop                 loopResult
	counters             map[string]float64 // public counters, difference over the measured window
	recovery             time.Duration      // durable_churn: the re-open after the window
	spans                []span             // traced segments only
	planHits, planMisses int64              // traced segments only
}

// setUp builds the workload's deployment from nothing and times it:
// generating the data, loading it, the first Prepare of every handle (index
// builds), servers and dials, and for the durable store OpenStore.
func setUp(cfg *config, w workloadDef, exp *expected, rec *recorder, index int) (deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := w.setup(&env{
		in:      generate(cfg.quick),
		exp:     exp,
		rec:     rec,
		dir:     cfg.dir,
		rng:     rand.New(rand.NewSource(cfg.seed + int64(index)*7919)),
		clients: w.clients,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return d, time.Since(t0), nil
}

func runSegment(ctx context.Context, cfg *config, w workloadDef, exp *expected, rec *recorder, index int) (segment, error) {
	var seg segment
	if rec != nil {
		rec.begin(w.name)
	}
	base := liveHeap()
	d, setup, err := setUp(cfg, w, exp, rec, index)
	if err != nil {
		return seg, err
	}
	seg.setup = setup
	if live := liveHeap(); live > base {
		seg.liveHeap = live - base
	}

	runLoop(ctx, d, w.clients, cfg.warm(), rec)
	var hits, misses int64
	if rec != nil {
		rec.begin(w.name) // drop the spans of set-up and warm-up
		hits, misses = rec.planHits.Load(), rec.planMisses.Load()
	}
	before := d.counters()
	runtime.GC()
	seg.loop = runLoop(ctx, d, w.clients, cfg.measured(), rec)
	after := d.counters()
	if rec != nil {
		seg.spans = rec.snapshot()
		seg.planHits, seg.planMisses = rec.planHits.Load()-hits, rec.planMisses.Load()-misses
	}
	if after != nil {
		seg.counters = make(map[string]float64, len(after))
		for k, v := range after {
			seg.counters[k] = v - before[k]
		}
		// A high-water mark, not a counter.
		seg.counters["overlay_depth_max"] = after["overlay_depth_max"]
	}
	if err := d.close(); err != nil {
		seg.loop.failAll(fmt.Errorf("%s: after the segment: %w", w.name, err))
	}
	if dc, ok := d.(*durableChurn); ok {
		seg.recovery = dc.recovery
	}
	return seg, nil
}

// endToEndValues are one segment's end-to-end metric values, keyed by name.
func (s segment) endToEndValues() map[string]float64 {
	ok := float64(s.loop.ok())
	return map[string]float64{
		"setup_s":         s.setup.Seconds(),
		"op_p50_ms":       ms(medianDur(s.loop.lat)),
		"ops_per_s":       s.loop.opsPerSec(),
		"cpu_ms_per_op":   ratio(ms(s.loop.cpu), ok),
		"allocs_per_op":   ratio(float64(s.loop.mallocs), ok),
		"alloc_kb_per_op": ratio(float64(s.loop.bytes)/1024, ok),
		"live_heap_mb":    float64(s.liveHeap) / (1 << 20),
	}
}

// result is everything one workload produced in one invocation.
type result struct {
	def      workloadDef
	segments []segment          // untraced pass
	setUps   []time.Duration    // set-ups timed beyond the segments' own
	traced   *segment           // traced pass, when asked for
	layer    map[string]float64 // per-layer metrics, when traced
}

func (r *result) attempted() (attempted, failed int) {
	for _, s := range r.segments {
		attempted += s.loop.attempted
		failed += s.loop.failed
	}
	return
}

func (r *result) firstErr() error {
	for _, s := range r.segments {
		if s.loop.firstErr != nil {
			return s.loop.firstErr
		}
	}
	if r.traced != nil {
		return r.traced.loop.firstErr
	}
	return nil
}

// timed are the end-to-end metrics a busy neighbour of the shared machine
// moves. A neighbour's burst lasts about as long as a segment, so a run
// reports them from its least disturbed segment, the one with the highest
// ops_per_s, and not as the median of the segments.
var timed = []string{"op_p50_ms", "ops_per_s", "cpu_ms_per_op"}

// endToEnd returns, per metric, the run's value and the segment values it
// comes from: for a timed metric the value of the fastest segment, for the
// others the median of the segment values.
func (r *result) endToEnd() (values map[string]float64, raw map[string][]float64) {
	raw = make(map[string][]float64)
	for _, s := range r.segments {
		for k, v := range s.endToEndValues() {
			raw[k] = append(raw[k], v)
		}
	}
	for _, d := range r.setUps {
		raw["setup_s"] = append(raw["setup_s"], d.Seconds())
	}
	values = make(map[string]float64, len(raw))
	for k, vs := range raw {
		values[k] = median(vs)
	}
	fastest := 0
	for i, v := range raw["ops_per_s"] {
		if v > raw["ops_per_s"][fastest] {
			fastest = i
		}
	}
	for _, k := range timed {
		values[k] = raw[k][fastest]
	}
	return values, raw
}

// run executes the selected workloads: the untraced pass with its segments
// interleaved across workloads (A B C D A B C D ...), so that drift of the
// machine lands on all of them alike, then with -trace one traced segment
// per workload and the workload-independent probes.
func run(ctx context.Context, cfg *config) ([]*result, error) {
	var results []*result
	for _, w := range workloads {
		if cfg.workload == "" || cfg.workload == w.name {
			results = append(results, &result{def: w})
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	in := generate(cfg.quick)
	exp, err := computeExpected(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	if cfg.corrupt {
		for name, a := range exp.byQuery {
			a.count++
			exp.byQuery[name] = a
		}
		for i := range exp.point {
			exp.point[i].count++
		}
	}
	for s := 0; s < cfg.segments(); s++ {
		for _, r := range results {
			seg, err := runSegment(ctx, cfg, r.def, exp, nil, s)
			if err != nil {
				return nil, err
			}
			r.segments = append(r.segments, seg)
		}
	}
	if !cfg.quick {
		for i := 0; i < extraSetUps; i++ {
			for _, r := range results {
				d, took, err := setUp(cfg, r.def, exp, nil, cfg.segments()+1+i)
				if err != nil {
					return nil, err
				}
				if err := d.close(); err != nil {
					return nil, fmt.Errorf("%s: after set-up: %w", r.def.name, err)
				}
				r.setUps = append(r.setUps, took)
			}
		}
	}
	if !cfg.trace {
		return results, nil
	}
	var all []span
	rec := newRecorder()
	for _, r := range results {
		seg, err := runSegment(ctx, cfg, r.def, exp, rec, cfg.segments())
		if err != nil {
			return nil, err
		}
		r.traced = &seg
		all = append(all, seg.spans...)
	}
	probes, err := runProbes(ctx, cfg, in, exp)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for _, r := range results {
		if r.layer, err = layerMetrics(r, probes); err != nil {
			r.traced.loop.failAll(err)
		}
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, all); err != nil {
			return nil, err
		}
	}
	return results, nil
}
