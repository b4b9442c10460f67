package server_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/server"
)

// parkStreams starts n Rows streams that each consume one row and then block
// until release closes — deterministically occupying n server-side in-flight
// slots (the producer stalls on credit with a 1-row/1-credit window). It
// returns once all n streams are parked.
func parkStreams(t *testing.T, ctx context.Context, p repro.PreparedQuery, n int, release <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	parked := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Enumerate(ctx, func([]int64) bool {
				parked <- struct{}{}
				<-release
				return false
			})
			if err != nil {
				t.Errorf("parked Enumerate: %v", err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-parked:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d streams parked", i, n)
		}
	}
	return &wg
}

// gaugeValue reads one per-store series straight from the process registry.
func gaugeValue(t *testing.T, metric, store string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := metrics.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return metrics.SumSamples(samples, metric, "store", store)
}

// countWithRetry polls Count until it succeeds (slots free asynchronously
// after a stream unparks) or the deadline passes.
func countWithRetry(ctx context.Context, p repro.PreparedQuery) (int64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := p.Count(ctx)
		if err == nil || !errors.Is(err, client.ErrOverloaded) || time.Now().After(deadline) {
			return n, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionOverload pins the acceptance criterion: with a budget of K
// in-flight requests and no queue, K parked streams plus M more requests
// yield exactly M typed ErrOverloaded rejections — surfaced through
// errors.Is on the client — and no server goroutine leaks.
func TestAdmissionOverload(t *testing.T) {
	const K, M = 3, 4
	ctx := context.Background()
	g := graphStore(t, dataset.Generate(dataset.HolmeKim, 80, 220, 3), 1, 3)
	srv := server.New(server.Config{
		Queriers: map[string]repro.Querier{"adm-overload": repro.Local(g)},
		Limits:   map[string]server.Limits{"adm-overload": {MaxInflight: K, MaxQueued: 0}},
	})
	remote := dial(t, serve(t, srv), client.WithStore("adm-overload"), client.WithStreamTuning(1, 1))
	p, err := remote.Prepare(query.Clique(3), repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The Prepare's slot frees only after its reply is on the wire; with no
	// queue, a stream that arrives before then is refused. Wait it out.
	for deadline := time.Now().Add(5 * time.Second); gaugeValue(t, "graphjoind_inflight_requests", "adm-overload") != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the Prepare request never left the in-flight gauge")
		}
		time.Sleep(time.Millisecond)
	}
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	wg := parkStreams(t, ctx, p, K, release)

	rejected := 0
	for i := 0; i < M; i++ {
		_, err := p.Count(ctx)
		if err == nil {
			t.Fatalf("Count %d succeeded with all %d slots parked", i, K)
		}
		if !errors.Is(err, client.ErrOverloaded) {
			t.Fatalf("Count %d: got %v, want ErrOverloaded", i, err)
		}
		rejected++
	}
	if rejected != M {
		t.Fatalf("got %d rejections, want exactly %d", rejected, M)
	}

	close(release)
	wg.Wait()
	if _, err := countWithRetry(ctx, p); err != nil {
		t.Fatalf("Count after unpark: %v", err)
	}

	// Zero goroutine leaks: the K parked request goroutines (and the stream
	// machinery) must all wind down once the streams finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAdmissionQueue proves the queue admits without rejecting: with K slots
// parked and a queue of M, M concurrent requests wait instead of failing and
// all complete once the slots free up.
func TestAdmissionQueue(t *testing.T) {
	const K, M = 2, 3
	ctx := context.Background()
	g := graphStore(t, dataset.Generate(dataset.HolmeKim, 80, 220, 3), 1, 3)
	srv := server.New(server.Config{
		Queriers: map[string]repro.Querier{"adm-queue": repro.Local(g)},
		Limits:   map[string]server.Limits{"adm-queue": {MaxInflight: K, MaxQueued: M}},
	})
	remote := dial(t, serve(t, srv), client.WithStore("adm-queue"), client.WithStreamTuning(1, 1))
	p, err := remote.Prepare(query.Clique(3), repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	wg := parkStreams(t, ctx, p, K, release)

	counts := make(chan error, M)
	for i := 0; i < M; i++ {
		go func() {
			_, err := p.Count(ctx)
			counts <- err
		}()
	}
	// The queued requests must still be waiting, not failed, when the slots
	// open up.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := 0; i < M; i++ {
		if err := <-counts; err != nil {
			t.Fatalf("queued Count %d: %v", i, err)
		}
	}
}

// TestMetricsOverWire exercises the full exposition round-trip through the
// wire protocol: requests_total scraped via client.Metrics must advance by
// exactly the number of wire requests the client issued, and the latency
// histograms must have matching observation counts.
func TestMetricsOverWire(t *testing.T) {
	ctx := context.Background()
	g := graphStore(t, dataset.Generate(dataset.HolmeKim, 80, 220, 3), 1, 3)
	srv := server.New(server.Config{
		Queriers: map[string]repro.Querier{"metr": repro.Local(g)},
	})
	remote := dial(t, serve(t, srv), client.WithStore("metr"))

	scrape := func() []metrics.Sample {
		t.Helper()
		text, err := remote.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ParseText: %v", err)
		}
		return samples
	}
	total := func(samples []metrics.Sample, kv ...string) float64 {
		return metrics.SumSamples(samples, "graphjoind_requests_total", kv...)
	}

	before := scrape() // includes itself: counted before its response

	// A known request mix: 1 prepare + 3 counts + 1 stats.
	p, err := remote.Prepare(query.Clique(3), repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Count(ctx); err != nil {
			t.Fatal(err)
		}
	}
	sp, ok := p.(interface {
		StatsErr(context.Context) (repro.ExecStats, error)
	})
	if !ok {
		t.Fatalf("remote prepared %T lacks StatsErr", p)
	}
	if _, err := sp.StatsErr(ctx); err != nil {
		t.Fatal(err)
	}

	after := scrape()
	// 1 prepare + 3 count + 1 stats + the after-scrape's own Metrics request
	// (the before-scrape counted itself into the baseline).
	if got := total(after, "store", "metr") - total(before, "store", "metr"); got != 6 {
		t.Errorf("requests_total advanced by %g, want 6", got)
	}
	for _, want := range []struct {
		typ string
		n   float64
	}{{"prepare", 1}, {"count", 3}, {"stats", 1}, {"metrics", 1}} {
		got := total(after, "store", "metr", "type", want.typ) - total(before, "store", "metr", "type", want.typ)
		if got != want.n {
			t.Errorf("requests_total{type=%q} advanced by %g, want %g", want.typ, got, want.n)
		}
	}
	// Latency histograms observe once per request.
	countObs := func(s []metrics.Sample) float64 {
		return metrics.SumSamples(s, "graphjoind_request_seconds_count", "store", "metr", "type", "count")
	}
	if got := countObs(after) - countObs(before); got != 3 {
		t.Errorf("request_seconds_count{type=count} advanced by %g, want 3", got)
	}
	// No errors were produced.
	if got := metrics.SumSamples(after, "graphjoind_request_errors_total", "store", "metr"); got != 0 {
		t.Errorf("request_errors_total = %g, want 0", got)
	}
	// The connection gauge sees this client.
	if got := metrics.SumSamples(after, "graphjoind_connections", "store", "metr"); got != 1 {
		t.Errorf("connections = %g, want 1", got)
	}
}

// TestMetricsLeaseGauges drives Begin/End and watches the lease gauges.
func TestMetricsLeaseGauges(t *testing.T) {
	ctx := context.Background()
	g := graphStore(t, dataset.Generate(dataset.HolmeKim, 60, 150, 3), 1, 3)
	srv := server.New(server.Config{
		Queriers: map[string]repro.Querier{"metr-lease": repro.Local(g)},
	})
	remote := dial(t, serve(t, srv), client.WithStore("metr-lease"))

	leases := func() float64 {
		t.Helper()
		text, err := remote.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return metrics.SumSamples(samples, "graphjoind_open_leases", "store", "metr-lease")
	}

	if got := leases(); got != 0 {
		t.Fatalf("open_leases before Begin = %g, want 0", got)
	}
	txn, err := remote.ReadTxn()
	if err != nil {
		t.Fatal(err)
	}
	if got := leases(); got != 1 {
		t.Errorf("open_leases with txn = %g, want 1", got)
	}
	if err := txn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := leases(); got != 0 {
		t.Errorf("open_leases after End = %g, want 0", got)
	}
}

// TestClosedServerReleasesItsStore: the process-wide registry outlives every
// server, so Close must detach the polled gauges that close over a hosted
// store — otherwise each closed server pins its store (base rows, tries,
// overlays) for the life of the process.
func TestClosedServerReleasesItsStore(t *testing.T) {
	ctx := context.Background()
	const name = "metr-gc"
	depth := func() float64 { return gaugeValue(t, "graphjoind_overlay_depth", name) }

	collected := make(chan struct{})
	// Everything that references the store lives in this call's frame.
	func() {
		st := graphStore(t, dataset.Generate(dataset.HolmeKim, 60, 150, 3), 1, 3)
		runtime.SetFinalizer(st, func(*repro.Store) { close(collected) })
		srv := server.New(server.Config{Queriers: map[string]repro.Querier{name: repro.Local(st)}})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		remote, err := client.Dial(ctx, l.Addr().String(), client.WithStore(name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := remote.Prepare(query.Clique(3), repro.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Count(ctx); err != nil {
			t.Fatal(err)
		}
		if err := remote.Apply(query.Fwd, [][]int64{{1000, 1001}}, nil); err != nil {
			t.Fatal(err)
		}
		if got := depth(); got == 0 {
			t.Error("overlay_depth = 0 with a delta pending on a served store")
		}
		remote.Close()
		srv.Close()
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}()
	if got := depth(); got != 0 {
		t.Errorf("overlay_depth = %g after Close, want the released series' 0", got)
	}
	// Connection goroutines unwind asynchronously after Close; collect until
	// the finalizer reports in.
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("store still reachable after its server closed")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
