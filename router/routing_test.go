package router

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro"
)

// newReplicas builds n identical in-process stores plus one oracle, all
// loaded with the same deterministic edge relation.
func newReplicas(t *testing.T, n int) (oracle *repro.Store, hosts []repro.Querier) {
	t.Helper()
	edges := testEdges(400, 100)
	build := func() *repro.Store {
		st := repro.NewStore()
		if err := st.DefineRelation("edge", 2); err != nil {
			t.Fatal(err)
		}
		if err := st.Load("edge", edges); err != nil {
			t.Fatal(err)
		}
		return st
	}
	oracle = build()
	for i := 0; i < n; i++ {
		hosts = append(hosts, repro.Local(build()))
	}
	return oracle, hosts
}

// testEdges derives a deterministic pseudo-random edge list over [0, nodes).
func testEdges(m, nodes int64) [][]int64 {
	x := uint64(0x243f6a8885a308d3)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(nodes))
	}
	seen := make(map[[2]int64]bool)
	var edges [][]int64
	for int64(len(edges)) < m {
		a, b := next(), next()
		if a == b || seen[[2]int64{a, b}] {
			continue
		}
		seen[[2]int64{a, b}] = true
		edges = append(edges, []int64{a, b})
	}
	return edges
}

// TestRoutingDecisions pins the Prepare-time routing: plain joins fan out,
// a constant-pinned leading attribute routes to host k mod n alone, and an
// order led by a hidden variable runs unsharded on one host.
func TestRoutingDecisions(t *testing.T) {
	ctx := context.Background()
	oracle, hosts := newReplicas(t, 3)
	r, err := New(hosts, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	parse := func(src string) *repro.Query {
		q, err := oracle.ParseQuery("q", src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// A plain join fans out over all three hosts.
	p, err := r.Prepare(parse("edge(a, b), edge(b, c)"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rp := p.(*Prepared)
	if rp.single || len(rp.hosts) != 3 {
		t.Fatalf("plain join: single=%v hosts=%d, want fan-out over 3", rp.single, len(rp.hosts))
	}
	p.Close()

	// A constant pinning a variable — written as an equality predicate or
	// inside an atom — makes that variable the leading GAO attribute, and
	// the query routes to one host: 7 mod 3. Its result matches the oracle.
	for _, src := range []string{
		"edge(a, b), edge(b, c), a = 7",
		"edge(7, b), edge(b, c)",
		"out(b) :- edge(a, b), a = 7",
	} {
		p, err = r.Prepare(parse(src), repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rp = p.(*Prepared)
		if !rp.single {
			t.Fatalf("%s: constant-pinned query fanned out over %d hosts", src, len(rp.hosts))
		}
		if rp.hostIdx[0] != 1 {
			t.Fatalf("%s: constant 7 routed to host %d, want 7 mod 3 = 1", src, rp.hostIdx[0])
		}
		n, err := p.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Count(ctx, parse(src), repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("%s: single-shard count %d, oracle %d", src, n, want)
		}
		p.Close()
	}

	// A user-supplied order leading with a variable outside the output has
	// no attribute to partition rows on: it runs unsharded on one host.
	p, err = r.Prepare(parse("out(a, c) :- edge(a, b), edge(b, c)"), repro.Options{GAO: []string{"b", "a", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if rp = p.(*Prepared); !rp.single {
		t.Fatalf("order led by a hidden variable fanned out over %d hosts", len(rp.hosts))
	}
	p.Close()

	// Options.Shard is the router's own mechanism and rejected from callers,
	// typed.
	if _, err := r.Prepare(parse("edge(a, b)"), repro.Options{Shard: &repro.Shard{Part: 0, Of: 2}}); !errors.Is(err, repro.ErrUnsupportedQuery) {
		t.Fatalf("caller-supplied Options.Shard: %v, want ErrUnsupportedQuery", err)
	}
}

// countingHost is a replica that counts the prepares it is asked for.
type countingHost struct {
	repro.Querier
	prepares atomic.Int64
}

func (h *countingHost) Prepare(q *repro.Query, opts repro.Options) (repro.PreparedQuery, error) {
	h.prepares.Add(1)
	return h.Querier.Prepare(q, opts)
}

// TestUnknownAlgorithmBlamesNoHost pins that a bad algorithm name, or a bad
// user order, is the caller's error: Prepare rejects it with the typed
// sentinel before any host is asked, so no *HostError names a healthy host
// for it.
func TestUnknownAlgorithmBlamesNoHost(t *testing.T) {
	_, replicas := newReplicas(t, 3)
	hosts := make([]repro.Querier, len(replicas))
	counters := make([]*countingHost, len(replicas))
	for i, h := range replicas {
		counters[i] = &countingHost{Querier: h}
		hosts[i] = counters[i]
	}
	r, err := New(hosts, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q, err := r.ParseQuery("q", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []repro.Algorithm{"nope", "psql"} {
		_, err := r.Prepare(q, repro.Options{Algorithm: name})
		if !errors.Is(err, repro.ErrUnknownAlgorithm) {
			t.Errorf("%q: %v, want ErrUnknownAlgorithm", name, err)
		}
		var he *HostError
		if errors.As(err, &he) {
			t.Errorf("%q: blamed host %s: %v", name, he.Host, err)
		}
	}
	// A user order that is not an order of the query's variables is the
	// caller's error too.
	for _, gao := range [][]string{{"a", "b", "z"}, {"a", "a", "b"}} {
		_, err := r.Prepare(q, repro.Options{GAO: gao})
		if !errors.Is(err, repro.ErrUnboundVar) {
			t.Errorf("GAO %v: %v, want ErrUnboundVar", gao, err)
		}
		var he *HostError
		if errors.As(err, &he) {
			t.Errorf("GAO %v: blamed host %s: %v", gao, he.Host, err)
		}
	}
	for i, c := range counters {
		if n := c.prepares.Load(); n != 0 {
			t.Errorf("host %d saw %d prepares for a query it was never sent", i, n)
		}
	}
}

// TestHostErrorTyping pins that failures keep their typed identity through
// the *HostError wrapper.
func TestHostErrorTyping(t *testing.T) {
	_, hosts := newReplicas(t, 2)
	r, err := New(hosts, []string{"alpha", "beta"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	err = r.Load("nope", nil)
	var he *HostError
	if !errors.As(err, &he) {
		t.Fatalf("broadcast failure not a *HostError: %v", err)
	}
	if !errors.Is(err, repro.ErrUnknownRelation) {
		t.Fatalf("HostError hides the typed sentinel: %v", err)
	}
}
