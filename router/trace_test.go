package router_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/trace"
	"repro/router"
	"repro/server"
)

// TestRoutedTraceStitching is the tentpole acceptance test: a traced count
// through a router over three real TCP servers must yield ONE trace — every
// span (client root, router legs, per-shard server handling, engine stages)
// carries the same trace id, parent links form a well-nested tree, and every
// span's interval lies inside its parent's (a shard server's root span aside,
// which closes after its response is already on the wire).
func TestRoutedTraceStitching(t *testing.T) {
	ctx := context.Background()
	edges := wallEdges(300, 100)
	var specs []router.HostSpec
	for i := 0; i < 3; i++ {
		srv := server.NewSingle(edgeStore(t, edges))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		specs = append(specs, router.HostSpec{Addr: l.Addr().String()})
	}
	r, err := router.Open(ctx, specs, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q, err := r.ParseQuery("q", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The client side of a traced request, as graphjoin -trace drives it.
	tr := trace.New(trace.NewID())
	root := tr.StartSpan(0, "client.query")
	tctx := trace.NewContext(ctx, root)
	if _, err := p.Count(tctx); err != nil {
		t.Fatal(err)
	}
	root.End()

	// A server records a request's trace after answering it: fetch until all
	// three shard roots have landed.
	var remote []trace.SpanRecord
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if remote, err = r.TraceSpans(ctx, uint64(tr.ID())); err != nil {
			t.Fatalf("TraceSpans: %v", err)
		}
		roots := 0
		for _, s := range remote {
			if s.Stage == "server.count" {
				roots++
			}
		}
		if roots == 3 || time.Now().After(deadline) {
			break
		}
	}
	spans := append(tr.Spans(), remote...)

	// One trace: every span under the client's id.
	byID := make(map[trace.SpanID]trace.SpanRecord, len(spans))
	stages := make(map[string]int)
	for _, s := range spans {
		if s.Trace != tr.ID() {
			t.Errorf("span %q carries trace %d, want %d", s.Stage, s.Trace, tr.ID())
		}
		if _, dup := byID[s.ID]; dup {
			t.Errorf("duplicate span id %d (%q)", s.ID, s.Stage)
		}
		byID[s.ID] = s
		stages[s.Stage]++
	}

	// The full path is present: one client root, one leg + one server
	// handling + one engine execution per shard.
	for stage, want := range map[string]int{
		"client.query": 1,
		"router.leg":   3,
		"server.count": 3,
		"engine.count": 3,
	} {
		if stages[stage] != want {
			t.Errorf("stage %q appears %d times, want %d (stages: %v)", stage, stages[stage], want, stages)
		}
	}

	// Well-nested: every non-root parent id resolves, and the parent chain
	// reaches the client root.
	rootID := root.ID()
	for _, s := range spans {
		if s.ID == rootID {
			if s.Parent != 0 {
				t.Errorf("client root has parent %d", s.Parent)
			}
			continue
		}
		if s.Parent == 0 {
			t.Errorf("span %q is an orphan root", s.Stage)
			continue
		}
		seen := 0
		for cur := s; cur.Parent != 0; cur = byID[cur.Parent] {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Errorf("span %q: parent %d not in the stitched trace", cur.Stage, cur.Parent)
				break
			}
			// A child runs inside its parent's interval: the client root
			// brackets the legs, a server root brackets its engine. A server
			// root closes only after its response is sent, so it may outlast
			// the leg that awaited the response — but the engine work under
			// it ends before the response, hence inside the leg.
			if cur.Start.Before(p.Start) {
				t.Errorf("span %q starts %v before its parent %q", cur.Stage, p.Start.Sub(cur.Start), p.Stage)
			}
			outers := []trace.SpanRecord{p}
			switch {
			case cur.Stage == "server.count":
				outers = nil
			case p.Stage == "server.count":
				outers = append(outers, byID[p.Parent])
			}
			end := func(r trace.SpanRecord) time.Time { return r.Start.Add(r.Duration) }
			for _, o := range outers {
				if end(cur).After(end(o)) {
					t.Errorf("span %q ends %v after %q", cur.Stage, end(cur).Sub(end(o)), o.Stage)
				}
			}
			if seen++; seen > len(spans) {
				t.Fatalf("parent cycle at span %q", s.Stage)
			}
		}
	}

	// Each shard's server.count hangs off a distinct router leg.
	legParents := make(map[trace.SpanID]bool)
	for _, s := range spans {
		if s.Stage == "server.count" {
			p, ok := byID[s.Parent]
			if !ok || p.Stage != "router.leg" {
				t.Errorf("server.count parent is %q, want router.leg", p.Stage)
				continue
			}
			if legParents[p.ID] {
				t.Errorf("two shard roots share leg %d", p.ID)
			}
			legParents[p.ID] = true
		}
	}

	// The renderer accepts the stitched tree and shows the full path.
	var b strings.Builder
	trace.Render(&b, spans)
	out := b.String()
	for _, stage := range []string{"client.query", "router.leg", "server.count", "engine.count"} {
		if !strings.Contains(out, stage) {
			t.Errorf("rendered trace missing %q:\n%s", stage, out)
		}
	}
}

// TestRoutedExplain pins the Explain satellite: a routed prepared query
// reports each host's part and the merge strategy; a constant-pinned query
// reports its single-host routing.
func TestRoutedExplain(t *testing.T) {
	ctx := context.Background()
	_, r := cluster(t, 3)

	q, err := r.ParseQuery("q", "edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Prepare(q, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	text, err := p.(*router.Prepared).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"host 0 (host-0): part 0 of 3", "host 1 (host-1): part 1 of 3", "host 2 (host-2): part 2 of 3",
		"merge: concatenation of parts in host order (leading attribute in output column 0)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fan-out explain missing %q:\n%s", want, text)
		}
	}

	// Pinned: an equality predicate fixing the leading GAO attribute routes
	// the whole query to host 40 mod 3.
	pq, err := r.ParseQuery("q", "edge(a, b), edge(b, c), a = 40")
	if err != nil {
		t.Fatal(err)
	}
	pp, err := r.Prepare(pq, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	text, err = pp.(*router.Prepared).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "pinned") || !strings.Contains(text, "host 1") {
		t.Errorf("pinned explain should route 40 to host 1:\n%s", text)
	}
	if !strings.Contains(text, "full query, no shard restriction") {
		t.Errorf("pinned explain missing the unsharded note:\n%s", text)
	}

	// A constant inside an atom pins its placeholder the same way; the host
	// plan shows the placeholder leading the order.
	cq, err := r.ParseQuery("q", "edge(70, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := r.Prepare(cq, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if text, err = cp.(*router.Prepared).Explain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pinned: leading attribute $1 = 70", "host 1", "gao $1 < b < c", "score cross=0"} {
		if !strings.Contains(text, want) {
			t.Errorf("in-atom constant explain missing %q:\n%s", want, text)
		}
	}

	// A projection the order cannot stream still leads with its first head
	// column, so its parts concatenate; the host plan says what is buffered.
	hq, err := r.ParseQuery("q", "hop(a, c) :- edge(a, b), edge(b, c)")
	if err != nil {
		t.Fatal(err)
	}
	hp, err := r.Prepare(hq, repro.Options{Algorithm: repro.LFTJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	if text, err = hp.(*router.Prepared).Explain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"merge: concatenation", "gao a < b < c", "runner-up a < c < b", "keys a | buffer c  [sort+dedup per group]"} {
		if !strings.Contains(text, want) {
			t.Errorf("buffered explain missing %q:\n%s", want, text)
		}
	}
}
