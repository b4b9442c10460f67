package router

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro"
	"repro/internal/trace"
)

// TraceSpans collects the spans the cluster hosts recorded under one trace id
// — the downstream half of a stitched trace: a server fronting this router
// merges these with its own spans when answering a by-id trace fetch. Hosts
// whose querier has no trace surface (in-process stores execute inside the
// coordinator's trace already) are skipped; a host that fails the fetch fails
// the whole stitch with a *HostError so a partial tree is never presented as
// complete.
func (r *Router) TraceSpans(ctx context.Context, id uint64) ([]trace.SpanRecord, error) {
	type fetcher interface {
		TraceSpans(context.Context, uint64) ([]trace.SpanRecord, error)
	}
	n := len(r.hosts)
	spans := make([][]trace.SpanRecord, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, h := range r.hosts {
		f, ok := h.(fetcher)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(i int, f fetcher) {
			defer wg.Done()
			spans[i], errs[i] = f.TraceSpans(ctx, id)
		}(i, f)
	}
	wg.Wait()
	var all []trace.SpanRecord
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, r.hostErr(i, errs[i])
		}
		all = append(all, spans[i]...)
	}
	return all, nil
}

// Explain renders the routing decision and the downstream plan: which hosts
// participate, each host's part, how the per-host answers combine, and host
// 0's compiled plan (the parts compile identically up to the shard spec, so
// one plan stands for all).
func (p *Prepared) Explain(ctx context.Context) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "routed query %s [%s]\n", p.q.Name, p.alg)
	fmt.Fprintf(&b, "routing: %s\n", p.routeNote)
	if p.single {
		i := p.hostIdx[0]
		fmt.Fprintf(&b, "  host %d (%s): full query, no shard restriction\n", i, p.r.names[i])
	} else {
		for i := range p.hosts {
			hi := p.hostIdx[i]
			fmt.Fprintf(&b, "  host %d (%s): part %d of %d\n", hi, p.r.names[hi], i, len(p.hosts))
		}
		if p.globalAgg {
			fmt.Fprintf(&b, "merge: fold of per-host aggregate partials\n")
		} else {
			fmt.Fprintf(&b, "merge: concatenation of parts in host order (leading attribute in output column %d)\n", p.leadCol)
		}
	}
	sub, err := repro.ExplainText(ctx, p.hosts[0])
	if err != nil {
		return "", p.r.hostErr(p.hostIdx[0], err)
	}
	if sub != "" {
		fmt.Fprintf(&b, "host %d plan:\n", p.hostIdx[0])
		for _, line := range strings.Split(strings.TrimRight(sub, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String(), nil
}
