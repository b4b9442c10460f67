package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Limits caps one store's concurrent work (per-tenant admission control, on
// top of the per-stream credit scheme). The zero value imposes no limits.
type Limits struct {
	// MaxInflight is the number of requests the store runs concurrently;
	// 0 or negative means unlimited.
	MaxInflight int
	// MaxQueued is how many admitted-but-waiting requests may queue for an
	// in-flight slot before new arrivals are rejected with ErrOverloaded.
	// Only meaningful with MaxInflight > 0; 0 rejects as soon as the
	// in-flight budget is exhausted.
	MaxQueued int
}

// requestTypes maps every request frame type to its metrics label.
var requestTypes = map[byte]string{
	wire.TDefine:        "define",
	wire.TLoad:          "load",
	wire.TApply:         "apply",
	wire.TApplyAll:      "apply_all",
	wire.TParse:         "parse",
	wire.TPrepare:       "prepare",
	wire.TClosePrepared: "close_prepared",
	wire.TCount:         "count",
	wire.TRows:          "rows",
	wire.TBegin:         "begin",
	wire.TEnd:           "end",
	wire.TBatch:         "batch",
	wire.TStats:         "stats",
	wire.TExplain:       "explain",
	wire.TRelations:     "relations",
	wire.TMetrics:       "metrics",
	wire.TTrace:         "trace",
}

// requestName labels a frame type for spans and the slow-query log.
func requestName(typ byte) string {
	if name, ok := requestTypes[typ]; ok {
		return name
	}
	return fmt.Sprintf("0x%02x", typ)
}

// storeMetrics is one store's serving instrumentation, pre-registered per
// request type so the hot path is two atomic ops and a histogram observe.
type storeMetrics struct {
	requests    map[byte]*metrics.Counter   // admitted requests, by type
	latency     map[byte]*metrics.Histogram // request duration, by type
	errors      map[byte]*metrics.Counter   // failed requests, by type
	unknown     *metrics.Counter            // admitted requests of unknown type
	rejected    *metrics.Counter            // admission-control rejections
	connections *metrics.Gauge              // bound connections
	creditStall *metrics.Counter            // Rows producer seconds blocked on credit
}

func newStoreMetrics(store string) *storeMetrics {
	reg := metrics.Default()
	sm := &storeMetrics{
		requests: make(map[byte]*metrics.Counter, len(requestTypes)),
		latency:  make(map[byte]*metrics.Histogram, len(requestTypes)),
		errors:   make(map[byte]*metrics.Counter, len(requestTypes)),
	}
	for typ, name := range requestTypes {
		sm.requests[typ] = reg.Counter("graphjoind_requests_total",
			"Requests admitted, by store and request type.", "store", store, "type", name)
		sm.latency[typ] = reg.Histogram("graphjoind_request_seconds",
			"Request duration from admission to response, by store and request type.",
			"store", store, "type", name)
		sm.errors[typ] = reg.Counter("graphjoind_request_errors_total",
			"Requests answered with an error, by store and request type.", "store", store, "type", name)
	}
	sm.unknown = reg.Counter("graphjoind_requests_total",
		"Requests admitted, by store and request type.", "store", store, "type", "unknown")
	sm.rejected = reg.Counter("graphjoind_rejected_total",
		"Requests rejected by per-store admission control.", "store", store)
	sm.connections = reg.Gauge("graphjoind_connections",
		"Connections currently bound to the store.", "store", store)
	sm.creditStall = reg.Counter("graphjoind_rows_credit_stall_seconds_total",
		"Total time Rows producers spent blocked waiting for client credit.", "store", store)
	return sm
}

// admitted counts one request into requests_total. Called before the
// handler runs — and therefore before any response frame is written — so a
// scrape taken after a client has received all its responses equals the
// client's own request ledger exactly.
func (sm *storeMetrics) admitted(typ byte) {
	if sm == nil {
		return
	}
	if ctr, ok := sm.requests[typ]; ok {
		ctr.Inc()
	} else {
		sm.unknown.Inc()
	}
}

// done records the request's latency and, when it failed, its error.
func (sm *storeMetrics) done(typ byte, start time.Time, err error) {
	if sm == nil {
		return
	}
	if h, ok := sm.latency[typ]; ok {
		h.ObserveSince(start)
	}
	if err != nil {
		if ctr, ok := sm.errors[typ]; ok {
			ctr.Inc()
		}
	}
}

// stalled accumulates time a Rows producer spent blocked on client credit.
func (sm *storeMetrics) stalled(d time.Duration) {
	if sm != nil && d > 0 {
		sm.creditStall.AddDuration(d)
	}
}

// admission is one store's request-budget semaphore: MaxInflight slots, a
// FIFO wait queue of at most MaxQueued, fast typed rejection beyond that.
// With MaxInflight <= 0 it admits everything but still counts occupancy for
// the in-flight gauge.
type admission struct {
	store       string
	maxInflight int
	maxQueued   int

	mu      sync.Mutex
	active  int
	waiters []chan struct{}
}

// newAdmission returns the store's admission gate; Server.registerGauges
// exports its occupancy.
func newAdmission(store string, lim Limits) *admission {
	return &admission{store: store, maxInflight: lim.MaxInflight, maxQueued: lim.MaxQueued}
}

func (a *admission) activeCount() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return float64(a.active)
}

func (a *admission) queuedDepth() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return float64(len(a.waiters))
}

// acquire claims one in-flight slot, queueing within the budget. It returns
// a wire.ErrOverloaded-typed error when the queue is full, or ctx's error if
// the request is cancelled while waiting. Every nil return must be balanced
// by release.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	if a.maxInflight <= 0 || a.active < a.maxInflight {
		a.active++
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.maxQueued {
		a.mu.Unlock()
		return fmt.Errorf("server: store %q at budget (%d in-flight, %d queued): %w",
			a.store, a.maxInflight, a.maxQueued, wire.ErrOverloaded)
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.mu.Unlock()
				return ctx.Err()
			}
		}
		a.mu.Unlock()
		// The slot was granted between Done firing and the lock: hand it back.
		a.release()
		return ctx.Err()
	}
}

// release frees one slot, handing it to the oldest waiter if any (the slot
// transfers, so active never dips below the true occupancy).
func (a *admission) release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.mu.Unlock()
		close(ch)
		return
	}
	a.active--
	a.mu.Unlock()
}

// leaseTracker records the open read-transactions (snapshot leases) of one
// store across all connections, backing the open-lease count and
// oldest-lease-age gauges.
type leaseTracker struct {
	mu   sync.Mutex
	next uint64
	open map[uint64]time.Time
}

func newLeaseTracker() *leaseTracker {
	return &leaseTracker{open: make(map[uint64]time.Time)}
}

func (lt *leaseTracker) add() uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.next++
	lt.open[lt.next] = time.Now()
	return lt.next
}

func (lt *leaseTracker) remove(tok uint64) {
	lt.mu.Lock()
	delete(lt.open, tok)
	lt.mu.Unlock()
}

func (lt *leaseTracker) count() float64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return float64(len(lt.open))
}

func (lt *leaseTracker) oldestAge() float64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var oldest time.Time
	for _, t := range lt.open {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}

// overlayDepther is the optional store surface behind
// graphjoind_overlay_depth (repro.Local has it; remote queriers do not).
type overlayDepther interface{ OverlayDepth() int }

// registerGauges wires one hosted store's polled gauges — admission
// occupancy, open leases, and (for stores that report it) CSR overlay depth —
// into the process-wide registry, keeping each series' release for
// beginClose: the registry outlives the server, and a series left pointing
// at a closed server's store would pin that store for the life of the
// process.
func (s *Server) registerGauges(t *tenant) {
	reg := metrics.Default()
	gauge := func(metric, help string, fn func() float64) {
		s.gaugeReleases = append(s.gaugeReleases, reg.GaugeFunc(metric, help, fn, "store", t.name))
	}
	a, lt := t.adm, t.leases
	gauge("graphjoind_inflight_requests",
		"Requests currently running (admitted, response not yet complete).", a.activeCount)
	gauge("graphjoind_queued_requests",
		"Requests waiting for an in-flight slot.", a.queuedDepth)
	gauge("graphjoind_open_leases",
		"Read-transactions currently pinning a snapshot.", lt.count)
	gauge("graphjoind_oldest_lease_age_seconds",
		"Age of the oldest open read-transaction (0 when none).", lt.oldestAge)
	if depth, ok := t.store.(overlayDepther); ok {
		gauge("graphjoind_overlay_depth",
			"Tuples pending in CSR delta-overlay logs across the store's cached indexes.",
			func() float64 { return float64(depth.OverlayDepth()) })
	}
	reg.CounterFunc("graphjoind_overlay_compactions_total",
		"CSR overlay log compactions performed by this process.",
		func() float64 { return float64(relation.OverlayCompactions()) })
}
