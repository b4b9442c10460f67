// Package metrics is the serving observability layer: a dependency-free
// registry of atomic counters, gauges, and log-bucketed latency histograms,
// exported in the Prometheus text exposition format. graphjoind serves a
// process-wide registry on -metrics-addr; the server, store, and durability
// layers record into it so operators see per-tenant QPS, request latency
// distributions, flow-control stalls, WAL fsync behavior, and index overlay
// state from one scrape — and the runtime-observed cardinalities the
// adaptive-planning roadmap item needs are accumulated as a side effect.
//
// Metrics are identified by name plus a label set; Counter/Gauge/Histogram
// are get-or-create, so independently instrumented layers share one time
// series when they agree on name and labels. All value types are safe for
// concurrent use and never allocate on the hot recording path.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics and renders them for export. The zero value
// is not usable; create one with NewRegistry or share Default().
type Registry struct {
	mu sync.Mutex
	// families keeps name → help/type so exposition groups series correctly
	// and a name cannot be registered under two metric types.
	families map[string]*family
	// series keys are name + canonical label rendering.
	series map[string]metric
}

type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	// keys of the member series, in registration order; sorted at export.
	keys []string
}

// metric is one registered time series.
type metric interface {
	// sampleLabels returns the canonical label rendering ("" or `{k="v"}`).
	labels() string
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: the one graphjoind exports and
// the instrumented layers (server, durable log, overlays) record into.
func Default() *Registry { return defaultRegistry }

// NewRegistry returns an empty registry (tests isolate with their own).
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		series:   make(map[string]metric),
	}
}

// renderLabels canonicalizes variadic "key, value, key, value" pairs: sorted
// by key, rendered as {k="v",k2="v2"}. Panics on an odd-length list — label
// sets are compile-time shapes, not runtime data.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register get-or-creates one series, enforcing type consistency per name.
// build is called under the registry lock when the series does not exist.
func (r *Registry) register(name, help, typ, lbls string, build func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ}
		r.families[name] = fam
	} else if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, fam.typ, typ))
	}
	key := name + lbls
	if m, ok := r.series[key]; ok {
		return m
	}
	m := build()
	r.series[key] = m
	fam.keys = append(fam.keys, key)
	return m
}

// Counter is a monotonically increasing value. The value is a float64 (so
// second-totals accumulate exactly like Prometheus counters); integer counts
// stay exact up to 2^53.
type Counter struct {
	bits atomic.Uint64
	lbls string
}

// Counter get-or-creates a counter series.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	lbls := renderLabels(kv)
	return r.register(name, help, "counter", lbls, func() metric {
		return &Counter{lbls: lbls}
	}).(*Counter)
}

func (c *Counter) labels() string { return c.lbls }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v must be >= 0 for Prometheus counter semantics).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// AddDuration adds d in seconds (the unit Prometheus _seconds_total totals
// are expressed in).
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	lbls string
}

// Gauge get-or-creates a gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	lbls := renderLabels(kv)
	return r.register(name, help, "gauge", lbls, func() metric {
		return &Gauge{lbls: lbls}
	}).(*Gauge)
}

func (g *Gauge) labels() string { return g.lbls }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to decrement).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// funcMetric is a series whose value is polled at export time (ages, depths,
// and other state that lives in the instrumented object itself).
type funcMetric struct {
	mu   sync.Mutex
	fn   func() float64
	gen  uint64 // bumped by every setFunc; identifies the registration that owns fn
	lbls string
}

func (f *funcMetric) labels() string { return f.lbls }

func (f *funcMetric) value() float64 {
	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	return fn()
}

// setFunc swaps the polled function; re-registering a func series replaces
// its source, so a store re-opened over the same name reports the live
// object, not a stale closure. The returned release re-points the series at
// a constant zero — dropping fn and whatever it closes over — unless a later
// registration has taken the series over in the meantime.
func (f *funcMetric) setFunc(fn func() float64) (release func()) {
	f.mu.Lock()
	f.fn = fn
	f.gen++
	gen := f.gen
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		if f.gen == gen {
			f.fn = func() float64 { return 0 }
		}
		f.mu.Unlock()
	}
}

// GaugeFunc registers (or re-points) a gauge whose value is fn() at export.
// The registry is process-wide and outlives the objects it instruments:
// call release when the instrumented object is closed, or the series keeps
// fn — and everything fn closes over — reachable for the life of the
// process. After release the series reads 0.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) (release func()) {
	lbls := renderLabels(kv)
	m := r.register(name, help, "gauge", lbls, func() metric {
		return &funcMetric{fn: fn, lbls: lbls}
	}).(*funcMetric)
	return m.setFunc(fn)
}

// CounterFunc registers (or re-points) a counter whose value is fn() at
// export; fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	lbls := renderLabels(kv)
	m := r.register(name, help, "counter", lbls, func() metric {
		return &funcMetric{fn: fn, lbls: lbls}
	}).(*funcMetric)
	m.setFunc(fn)
}

// LatencyBuckets are the default histogram boundaries: log-bucketed upper
// bounds doubling from 1µs to ~67s (27 buckets), expressed in seconds. A
// request latency histogram over them resolves sub-millisecond serving
// behavior and minute-scale outliers with one fixed, comparison-stable
// bucket layout.
var LatencyBuckets = func() []float64 {
	b := make([]float64, 27)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// SizeBuckets are log-bucketed boundaries for count-valued histograms
// (group-commit batch sizes, chunk sizes): powers of two from 1 to 2^20.
var SizeBuckets = func() []float64 {
	b := make([]float64, 21)
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-boundary histogram: observation counts per le bucket
// plus a running sum and count, exported in the Prometheus histogram
// convention (cumulative _bucket series, _sum, _count).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // non-cumulative; bucket i counts v <= bounds[i]
	inf     atomic.Uint64   // v > bounds[last]
	count   atomic.Uint64
	sumBits atomic.Uint64
	lbls    string
}

// Histogram get-or-creates a latency histogram (LatencyBuckets, seconds).
func (r *Registry) Histogram(name, help string, kv ...string) *Histogram {
	return r.HistogramBuckets(name, help, LatencyBuckets, kv...)
}

// HistogramBuckets get-or-creates a histogram with explicit bucket upper
// bounds (must be sorted ascending). A name's bucket layout is fixed by its
// first registration.
func (r *Registry) HistogramBuckets(name, help string, bounds []float64, kv ...string) *Histogram {
	lbls := renderLabels(kv)
	return r.register(name, help, "histogram", lbls, func() metric {
		return &Histogram{
			bounds:  bounds,
			buckets: make([]atomic.Uint64, len(bounds)),
			lbls:    lbls,
		}
	}).(*Histogram)
}

func (h *Histogram) labels() string { return h.lbls }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (shared slice; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the non-cumulative per-bucket counts, with the
// overflow (+Inf) bucket appended.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets)+1)
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	out[len(h.buckets)] = h.inf.Load()
	return out
}
