package router_test

import (
	"context"
	"net"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/core"
	"repro/router"
	"repro/server"
)

// loadDeployment is one deployment shape over stores whose databases the
// test can inspect: the stores behind qr.
type loadDeployment struct {
	name   string
	qr     repro.Querier
	stores []*repro.Store
}

// pathEdges is edge = {1→2, 2→3}: one path of edge(a, b), edge(b, c).
var pathEdges = [][]int64{{1, 2}, {2, 3}}

// loadDeployments serves pathEdges three ways: in process (repro.Local),
// through client.Dial to a server.New, and through router.New over three
// in-process hosts.
func loadDeployments(t *testing.T) []loadDeployment {
	ctx := context.Background()
	local := edgeStore(t, pathEdges)
	served := edgeStore(t, pathEdges)
	srv := server.New(server.Config{Queriers: map[string]repro.Querier{server.DefaultStore: repro.Local(served)}})
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
	hostStores := []*repro.Store{edgeStore(t, pathEdges), edgeStore(t, pathEdges), edgeStore(t, pathEdges)}
	hosts := make([]repro.Querier, len(hostStores))
	for i, st := range hostStores {
		hosts[i] = repro.Local(st)
	}
	r, err := router.New(hosts, nil, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return []loadDeployment{
		{"local", repro.Local(local), []*repro.Store{local}},
		{"client", c, []*repro.Store{served}},
		{"router", r, hostStores},
	}
}

// edgeIndexes returns the store's edge indexes over both attribute orders.
func edgeIndexes(t *testing.T, st *repro.Store) [2]*core.Index {
	t.Helper()
	var out [2]*core.Index
	for i, perm := range [][]int{{0, 1}, {1, 0}} {
		x, err := st.DB().TrieIndex("edge", perm)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = x
	}
	return out
}

// TestLoadKeepsHandles: a Load is a write like Apply in every deployment. A
// handle prepared before it counts the new contents, the indexes its plan
// bound stay the relation's indexes, and preparing the shape again is a
// plan-cache hit.
func TestLoadKeepsHandles(t *testing.T) {
	ctx := context.Background()
	for _, dep := range loadDeployments(t) {
		t.Run(dep.name, func(t *testing.T) {
			q, err := dep.qr.ParseQuery("p", "edge(a, b), edge(b, c)")
			if err != nil {
				t.Fatal(err)
			}
			// The reversed order binds edge's swapped index as well.
			opts := []repro.Options{{}, {GAO: []string{"c", "b", "a"}}}
			var handles []repro.PreparedQuery
			for _, o := range opts {
				p, err := dep.qr.Prepare(q, o)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				if n, err := p.Count(ctx); err != nil || n != 1 {
					t.Fatalf("count before the Load = %d, %v; want 1", n, err)
				}
				handles = append(handles, p)
			}
			before := make([][2]*core.Index, len(dep.stores))
			for i, st := range dep.stores {
				before[i] = edgeIndexes(t, st)
			}
			if err := dep.qr.Load("edge", [][]int64{{1, 2}, {2, 3}, {3, 4}}); err != nil {
				t.Fatal(err)
			}
			for i, p := range handles {
				if n, err := p.Count(ctx); err != nil || n != 2 {
					t.Errorf("handle %d after the Load counts %d, %v; want 2", i, n, err)
				}
			}
			for i, st := range dep.stores {
				if after := edgeIndexes(t, st); after != before[i] {
					t.Errorf("store %d: the Load replaced edge's indexes", i)
				}
			}
			for _, o := range opts {
				p, err := dep.qr.Prepare(q, o)
				if err != nil {
					t.Fatal(err)
				}
				st := p.Stats()
				p.Close()
				if st.PlanCacheHits == 0 || st.PlanCacheMisses != 0 {
					t.Errorf("re-prepare %v after the Load: hits=%d misses=%d, want cache hits only", o.GAO, st.PlanCacheHits, st.PlanCacheMisses)
				}
			}
		})
	}
}

// TestReadTxnPinsAcrossLoad: a ReadTxn opened before a Load reads the
// pre-Load state through a handle prepared before the Load and through one
// prepared after it, in every deployment, while executions outside the
// transaction read the post-Load state.
func TestReadTxnPinsAcrossLoad(t *testing.T) {
	ctx := context.Background()
	for _, dep := range loadDeployments(t) {
		t.Run(dep.name, func(t *testing.T) {
			q, err := dep.qr.ParseQuery("p", "edge(a, b), edge(b, c)")
			if err != nil {
				t.Fatal(err)
			}
			early, err := dep.qr.Prepare(q, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer early.Close()
			txn, err := dep.qr.ReadTxn()
			if err != nil {
				t.Fatal(err)
			}
			defer txn.Close()
			if err := dep.qr.Load("edge", [][]int64{{1, 2}, {2, 3}, {3, 4}}); err != nil {
				t.Fatal(err)
			}
			late, err := dep.qr.Prepare(q, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer late.Close()
			for _, h := range []struct {
				name string
				p    repro.PreparedQuery
			}{{"prepared before the Load", early}, {"prepared after the Load", late}} {
				if n, err := txn.Count(ctx, h.p); err != nil || n != 1 {
					t.Errorf("txn through the handle %s: %d, %v; want the pre-Load 1", h.name, n, err)
				}
				if n, err := h.p.Count(ctx); err != nil || n != 2 {
					t.Errorf("handle %s outside the txn: %d, %v; want the post-Load 2", h.name, n, err)
				}
			}
		})
	}
}
