// Package server hosts repro Stores behind the wire protocol
// (repro/internal/wire), turning the in-process library into a query service:
// clients ship schema definitions, update batches, and prepared graph-pattern
// queries over a connection and the server answers from its shared indexes —
// the deployment shape the paper assumes of LogicBlox, and the seam along
// which stores shard across processes and hosts.
//
// A Server is multi-tenant: it hosts one or more named backends
// (Config.Queriers) — an in-process Store wrapped by repro.Local, or any other
// repro.Querier, such as a router.Router fronting a cluster of downstream
// servers — and each connection binds to one of them in its Hello exchange.
// Per connection the server keeps a prepared-statement table and a
// read-transaction table; requests on one connection run concurrently (each
// in its own goroutine, cancellable by a client Cancel frame), and a request
// failure answers only that request — the connection, and every other
// in-flight request on it, continues, mirroring the Store.Batch
// error-isolation contract.
//
// Shutdown drains: new requests are refused while every in-flight query runs
// to completion (or the drain context expires), then connections close.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro"
)

// DefaultStore is the store name a client that does not pick one binds to;
// single-tenant deployments (NewSingle) register their store under it.
const DefaultStore = "default"

// ErrServerClosed is returned by Serve after Shutdown or Close, mirroring
// net/http's contract.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server.
type Config struct {
	// Queriers is the registry of named backends served to clients: a Store
	// wrapped by repro.Local, or anything else implementing repro.Querier,
	// such as a router.Router fronting a cluster of remote hosts. Keys are
	// the names clients select in their Hello exchange. Store-level gauges
	// (overlay depth) register only for backends that expose them.
	Queriers map[string]repro.Querier
	// Logf, when set, receives connection-level diagnostics (accept and
	// protocol errors). Request-level errors are not logged — they are
	// answered to the client.
	Logf func(format string, args ...any)
	// Limits, keyed by store name, caps each store's concurrent requests
	// (admission control). Stores without an entry are unlimited. Rejected
	// requests fail fast with a wire error satisfying
	// errors.Is(err, client.ErrOverloaded).
	Limits map[string]Limits
	// Trace configures request tracing and the slow-query log. The zero
	// value retains a small buffer of client-traced requests and disables
	// slow-query logging.
	Trace TraceConfig
}

// Server serves Store queries to remote clients. Create one with New or
// NewSingle, then call Serve on as many listeners as needed.
type Server struct {
	// tenants is the registry of hosted backends, fixed at New.
	tenants map[string]*tenant
	logf    func(string, ...any)

	// traces retains completed request traces and writes the slow-query log.
	traces *traceSink

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	closed    bool
	// gaugeReleases detaches this server's polled gauges from the
	// process-wide registry (see registerGauges); run once, by beginClose.
	gaugeReleases []func()

	// inflight counts requests being handled across all connections;
	// Shutdown waits on it to drain.
	inflight sync.WaitGroup
}

// tenant is one hosted backend with its serving instrumentation, admission
// gate (nil = unlimited) and lease tracker.
type tenant struct {
	name    string
	store   repro.Querier
	metrics *storeMetrics
	adm     *admission
	leases  *leaseTracker
}

// New returns a server hosting the configured backends. The registry is
// copied; the backends themselves are shared with the caller, so an
// embedding process can keep writing to a store (e.g. a live data feed)
// while the server serves it — Store is safe for concurrent use.
func New(cfg Config) *Server {
	s := &Server{
		tenants:   make(map[string]*tenant, len(cfg.Queriers)),
		logf:      cfg.Logf,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	for name, q := range cfg.Queriers {
		if q == nil {
			continue
		}
		t := &tenant{
			name:    name,
			store:   q,
			metrics: newStoreMetrics(name),
			adm:     newAdmission(name, cfg.Limits[name]),
			leases:  newLeaseTracker(),
		}
		s.tenants[name] = t
		s.registerGauges(t)
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.traces = newTraceSink(cfg.Trace, s.logf)
	return s
}

// NewSingle returns a single-tenant server hosting one store under
// DefaultStore.
func NewSingle(st *repro.Store) *Server {
	return New(Config{Queriers: map[string]repro.Querier{DefaultStore: repro.Local(st)}})
}

// Stores returns the names of the hosted stores (unordered).
func (s *Server) Stores() []string {
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	return names
}

// Serve accepts connections on l until the listener fails or the server is
// shut down; it always returns a non-nil error, ErrServerClosed after
// Shutdown/Close.
func (s *Server) Serve(l net.Listener) error {
	if !s.addListener(l) {
		l.Close()
		return ErrServerClosed
	}
	defer s.removeListener(l)
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		c := newConn(s, nc)
		if !s.addConn(c) {
			nc.Close()
			return ErrServerClosed
		}
		go c.serve()
	}
}

// Shutdown gracefully stops the server: listeners close immediately, new
// requests are refused with a shutting-down error, and every in-flight
// request — including open Rows streams — runs to completion before the
// connections close. If ctx expires first, the remaining work is cut off by
// force-closing the connections (which cancels the per-request contexts) and
// ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.beginClose() {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeConns()
	return err
}

// Close stops the server immediately: listeners and connections close and
// in-flight requests are cancelled.
func (s *Server) Close() error {
	if !s.beginClose() {
		return nil
	}
	s.closeConns()
	return nil
}

// beginClose transitions to the closed state once: listeners stop accepting
// and startRequest refuses new work. It reports whether this call performed
// the transition.
func (s *Server) beginClose() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for _, release := range s.gaugeReleases {
		release()
	}
	s.gaugeReleases = nil
	return true
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) addListener(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) removeListener(l net.Listener) {
	s.mu.Lock()
	delete(s.listeners, l)
	s.mu.Unlock()
}

func (s *Server) addConn(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// startRequest admits one request into the in-flight set; it refuses once
// the server is draining or closed. Every successful call is balanced by
// s.inflight.Done() in the request goroutine.
func (s *Server) startRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// lookupStore resolves a Hello's store selection (empty means DefaultStore).
func (s *Server) lookupStore(name string) (*tenant, error) {
	if name == "" {
		name = DefaultStore
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("server: %q: %w", name, errUnknownStore)
	}
	return t, nil
}
