package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyBucketBoundaries(t *testing.T) {
	if len(LatencyBuckets) != 27 {
		t.Fatalf("LatencyBuckets has %d bounds, want 27", len(LatencyBuckets))
	}
	if LatencyBuckets[0] != 1e-6 {
		t.Fatalf("first bound %g, want 1e-6", LatencyBuckets[0])
	}
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] != 2*LatencyBuckets[i-1] {
			t.Fatalf("bound %d = %g, want double of %g", i, LatencyBuckets[i], LatencyBuckets[i-1])
		}
	}
	// ~67s top: 1e-6 * 2^26.
	if got, want := LatencyBuckets[26], 1e-6*float64(1<<26); got != want {
		t.Fatalf("top bound %g, want %g", got, want)
	}
	if len(SizeBuckets) != 21 || SizeBuckets[0] != 1 || SizeBuckets[20] != 1<<20 {
		t.Fatalf("SizeBuckets %v malformed", SizeBuckets)
	}
}

// TestHistogramBucketAssignment pins the le semantics: a value equal to a
// bound lands in that bound's bucket (v <= le), one ulp above falls through.
func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("t_hist", "", []float64{1, 2, 4})
	h.Observe(0.5) // bucket le=1
	h.Observe(1)   // bucket le=1 (boundary is inclusive)
	h.Observe(1.5) // bucket le=2
	h.Observe(4)   // bucket le=4
	h.Observe(4.1) // +Inf
	want := []uint64{2, 1, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets %v, want %v", got, want)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if s := h.Sum(); math.Abs(s-11.1) > 1e-9 {
		t.Fatalf("sum %g, want 11.1", s)
	}
}

// TestConcurrentCounters hammers one counter, one gauge, and one histogram
// from many goroutines (run under -race in CI) and requires exact totals.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "")
	g := r.Gauge("t_inflight", "")
	h := r.Histogram("t_lat", "")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine must return the same series.
			cc := r.Counter("t_total", "")
			for i := 0; i < perWorker; i++ {
				cc.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(workers*perWorker); got != want {
		t.Fatalf("counter %g, want %g", got, want)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge %g, want 0", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestCounterAddDuration(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_secs", "")
	c.AddDuration(1500 * time.Millisecond)
	if got := c.Value(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("AddDuration total %g, want 1.5", got)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_lbl", "", "store", "s1", "type", "count")
	b := r.Counter("t_lbl", "", "type", "count", "store", "s1")
	if a != b {
		t.Fatal("label order created distinct series")
	}
	other := r.Counter("t_lbl", "", "store", "s2", "type", "count")
	if a == other {
		t.Fatal("distinct label values shared a series")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("t_conflict", "")
}

func TestGaugeFuncRepoint(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("t_fn", "", func() float64 { return 1 })
	r.GaugeFunc("t_fn", "", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := SumSamples(samples, "t_fn"); got != 2 {
		t.Fatalf("re-pointed GaugeFunc exported %g, want 2", got)
	}
}

// TestExpositionRoundTrip writes a mixed registry through the Prometheus
// text format and parses it back, requiring every value to survive exactly.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_requests_total", "requests", "store", "s1", "type", "count").Add(41)
	r.Counter("rt_requests_total", "requests", "store", "s1", "type", "rows").Add(7)
	r.Gauge("rt_inflight", "in flight", "store", `quo"ted\pa`+"\n"+`th`).Set(3)
	r.GaugeFunc("rt_age_seconds", "age", func() float64 { return 12.5 }, "store", "s1")
	h := r.HistogramBuckets("rt_lat_seconds", "latency", []float64{0.001, 0.01, 0.1}, "type", "count")
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE rt_requests_total counter",
		"# TYPE rt_inflight gauge",
		"# TYPE rt_lat_seconds histogram",
		"# HELP rt_lat_seconds latency",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	check := func(name string, want float64, kv ...string) {
		t.Helper()
		if got := SumSamples(samples, name, kv...); got != want {
			t.Fatalf("%s%v = %g, want %g\n%s", name, kv, got, want, text)
		}
	}
	check("rt_requests_total", 41, "store", "s1", "type", "count")
	check("rt_requests_total", 48, "store", "s1") // both types summed
	check("rt_inflight", 3, "store", `quo"ted\pa`+"\n"+`th`)
	check("rt_age_seconds", 12.5)
	// Histogram expansion: cumulative buckets, sum, count.
	check("rt_lat_seconds_bucket", 2, "le", "0.001")
	check("rt_lat_seconds_bucket", 2, "le", "0.01")
	check("rt_lat_seconds_bucket", 3, "le", "0.1")
	check("rt_lat_seconds_bucket", 4, "le", "+Inf")
	check("rt_lat_seconds_count", 4)
	if got := SumSamples(samples, "rt_lat_seconds_sum"); math.Abs(got-5.051) > 1e-9 {
		t.Fatalf("histogram sum %g, want 5.051", got)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"name_only",
		`broken{le="0.1" 3`,
		"name notanumber",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseText(%q) did not fail", bad)
		}
	}
}
