package router_test

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro"
	"repro/client"
	"repro/server"
)

// TestRetiredAlgorithmsRejected pins that the paper's baselines are not
// serving engines: their names fail Prepare with ErrUnknownAlgorithm on a
// local store, through a client over the wire, and through a router.
func TestRetiredAlgorithmsRejected(t *testing.T) {
	ctx := context.Background()
	edges := wallEdges(200, 50)
	srv := server.NewSingle(edgeStore(t, edges))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, r := cluster(t, 3)

	st := edgeStore(t, edges)
	q, err := st.ParseQuery("q", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range []struct {
		name string
		qr   repro.Querier
	}{
		{"store", repro.Local(st)},
		{"client", c},
		{"router", r},
	} {
		for _, alg := range []repro.Algorithm{"psql", "hybrid"} {
			if _, err := dep.qr.Prepare(q, repro.Options{Algorithm: alg}); !errors.Is(err, repro.ErrUnknownAlgorithm) {
				t.Errorf("%s: %q prepared with %v, want ErrUnknownAlgorithm", dep.name, alg, err)
			}
		}
	}
}
