package router_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/metrics"
	"repro/router"
	"repro/server"
)

// TestServedLedger drives a served store with concurrent clients and checks
// the server's requests_total against the clients' own ledger: every request
// a client sends is counted exactly once, and nothing else is. Half the
// operations stop a row stream early, so each of them sends a Cancel frame
// on top of its one request; the Cancel must not count. The store subtest
// serves an in-process store, the routed one serves a router over three
// served hosts, the way graphjoind -route does.
func TestServedLedger(t *testing.T) {
	for _, dep := range []struct {
		name    string
		backend func(t *testing.T) repro.Querier
	}{
		{"store", func(t *testing.T) repro.Querier { return repro.Local(repro.NewStore()) }},
		{"routed", func(t *testing.T) repro.Querier {
			specs := make([]router.HostSpec, 3)
			for i := range specs {
				specs[i] = router.HostSpec{Addr: serveStore(t, repro.NewStore())}
			}
			r, err := router.Open(context.Background(), specs, router.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
	} {
		t.Run(dep.name, func(t *testing.T) {
			store := "ledger_" + dep.name
			srv := server.New(server.Config{Queriers: map[string]repro.Querier{store: dep.backend(t)}})
			servedLedger(t, serveQuerier(t, srv), store)
		})
	}
}

// servedLedger runs the ledger workload against the named store at addr.
func servedLedger(t *testing.T, addr, store string) {
	const (
		nodes      = 60
		conns      = 4
		opsPerConn = 24
		stopAfter  = 16
	)
	ctx := context.Background()
	// A 4-row chunk and a 2-chunk credit window keep the server producing
	// when a client stops at row 16, so every early stop sends its Cancel
	// to a live stream.
	dial := func() *client.Store {
		c, err := client.Dial(ctx, addr, client.WithStore(store), client.WithStreamTuning(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	requestsTotal := func(c *client.Store) float64 {
		t.Helper()
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return metrics.SumSamples(samples, "graphjoind_requests_total", "store", store)
	}

	// The oracle gets the same writes in process.
	oracle := repro.NewStore()
	edges := wallEdges(400, nodes)
	setup := dial()
	before := requestsTotal(setup) // counted itself into the baseline
	for _, qr := range []repro.Querier{setup, repro.Local(oracle)} {
		if err := qr.DefineRelation("e", 2); err != nil {
			t.Fatal(err)
		}
		if err := qr.Load("e", edges); err != nil {
			t.Fatal(err)
		}
	}
	ledger := 2 // define, load

	var (
		mu      sync.Mutex
		errs    []error
		applied [][]int64
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	prepare := func(c *client.Store, src string) repro.PreparedQuery {
		q, err := c.ParseQuery("q", src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Prepare(q, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stop := func(p repro.PreparedQuery) error {
		n := 0
		return p.Enumerate(ctx, func([]int64) bool {
			n++
			return n < stopAfter
		})
	}
	for conn := 0; conn < conns; conn++ {
		c := dial()
		rows := prepare(c, "e(a,b), e(b,c)")
		agg := prepare(c, "agg(a, count(c)) :- e(a,b), e(b,c)")
		ledger += 4 // two parses, two prepares
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < opsPerConn; op++ {
				var err error
				switch op % 4 {
				case 0:
					_, err = rows.Count(ctx)
				case 1:
					err = stop(rows)
				case 2:
					// A new source node into an old one: each write adds paths.
					tuple := []int64{int64(nodes + conn*opsPerConn + op), int64(op % nodes)}
					if err = c.Apply("e", [][]int64{tuple}, nil); err == nil {
						mu.Lock()
						applied = append(applied, tuple)
						mu.Unlock()
					}
				case 3:
					err = stop(agg)
				}
				if err != nil {
					fail(err)
				}
			}
			for _, p := range []repro.PreparedQuery{rows, agg} {
				if err := p.Close(); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	ledger += conns * (opsPerConn + 2) // the ops, then two closes
	if len(errs) != 0 {
		t.Fatalf("%d operations failed; first: %v", len(errs), errs[0])
	}

	// The scrape counts itself before it answers.
	if got, want := requestsTotal(setup)-before, float64(ledger+1); got != want {
		t.Errorf("requests_total advanced by %g, the client ledger says %g", got, want)
	}

	if err := oracle.Apply("e", applied, nil); err != nil {
		t.Fatal(err)
	}
	q, err := setup.ParseQuery("q", "e(a,b), e(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := setup.Count(ctx, q, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Count(ctx, q, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("served count after the writes = %d, in process = %d", got, want)
	}
}
