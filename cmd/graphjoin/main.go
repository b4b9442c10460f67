// Command graphjoin runs any graph-pattern query on any dataset with either
// engine — the reproduction's equivalent of a database client:
//
//	graphjoin -dataset ego-Facebook -query 3-clique -engine lftj
//	graphjoin -dataset ca-GrQc -engine ms -selectivity 10 \
//	    -datalog 'v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)'
//	graphjoin -nodes 10000 -edges 50000 -model hk -query 4-clique -engine lftj
//	graphjoin -dataset ca-GrQc -query 3-path -engine ms -explain -stats -repeat 100
//
// Beyond the benchmark graph schema, -relation/-load define and fill an
// arbitrary schema (a general Store): directed and edge-labeled graphs are
// ordinary multi-relation schemas. Relations are declared name:arity and
// loaded from whitespace- or comma-separated integer rows:
//
//	graphjoin -relation follows:2 -relation likes:2 \
//	    -load follows=follows.tsv -load likes=likes.tsv \
//	    -datalog 'follows(a,b), follows(b,c), likes(c,a)'
//
// With -connect the same query flags run against a remote graphjoind server
// instead of an in-process store — the query executes server-side against
// the server's shared indexes:
//
//	graphjoin -connect db-host:7474 -query 3-clique -engine ms
//	graphjoin -connect db-host:7474 -store social \
//	    -datalog 'follows(a,b), follows(b,c)'
//	graphjoin -connect db-host:7474 -relation e:2 -load e=edges.tsv \
//	    -datalog 'e(a,b), e(b,c)'
//
// The query is prepared once (validated, GAO fixed, indexes bound) and then
// executed -repeat times; -explain prints the compiled plan and -stats the
// unified execution counters.
//
// Named queries: 3-clique, 4-clique, 4-cycle, 3-path, 4-path, 1-tree,
// 2-tree, 2-comb, 2-lollipop, 3-lollipop. The paper's baseline systems run
// in cmd/benchtables, not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "graphjoin: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var relations, loads cli.ListFlag
	var (
		connect     = flag.String("connect", "", "address of a graphjoind server; runs the query remotely")
		storeName   = flag.String("store", "", "named store on a multi-tenant server (with -connect; default \"default\")")
		datasetName = flag.String("dataset", "", "catalog dataset name (see DESIGN.md)")
		model       = flag.String("model", "ba", "generator when -dataset empty: er | ba | hk")
		nodes       = flag.Int("nodes", 10000, "generated graph nodes")
		edges       = flag.Int("edges", 50000, "generated graph edges")
		seed        = flag.Int64("seed", 1, "generator seed")
		queryName   = flag.String("query", "3-clique", "named benchmark query")
		datalog     = flag.String("datalog", "", "inline Datalog query body (overrides -query)")
		engineName  = flag.String("engine", "lftj", "lftj | ms")
		selectivity = flag.Int("selectivity", 10, "node-sample selectivity s (samples pick nodes w.p. 1/s)")
		timeout     = flag.Duration("timeout", 30*time.Minute, "execution timeout (paper protocol: 30m)")
		workers     = flag.Int("workers", 0, "worker pool size (0 = all cores)")
		showAGM     = flag.Bool("agm", false, "print the AGM output-size bound (local modes only)")
		explain     = flag.Bool("explain", false, "print the compiled plan (GAO, per-atom index, AGM bound)")
		showStats   = flag.Bool("stats", false, "print the unified execution counters after the run")
		repeat      = flag.Int("repeat", 1, "executions of the prepared query (plan compiled once)")
		showTrace   = flag.Bool("trace", false, "with -connect, trace the query end-to-end and print the span-tree timeline")
	)
	flag.Var(&relations, "relation", "define a store relation as name:arity (repeatable; switches to the general schema mode)")
	flag.Var(&loads, "load", "load a defined relation from a file of integer rows, as name=path (repeatable)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// rejectGraphFlags refuses the benchmark-graph flags in modes where they
	// have no meaning, instead of silently dropping them.
	rejectGraphFlags := func(mode string) error {
		var bad error
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "dataset", "model", "nodes", "edges", "seed", "selectivity":
				bad = fmt.Errorf("-%s applies to the benchmark graph mode and conflicts with %s", f.Name, mode)
			}
		})
		return bad
	}

	if *storeName != "" && *connect == "" {
		return fmt.Errorf("-store selects a tenant on a server and requires -connect")
	}
	if *showTrace && *connect == "" {
		return fmt.Errorf("-trace follows a query through a server and requires -connect")
	}

	var qr repro.Querier
	var store *repro.Store   // non-nil in the local modes (AGM bound)
	var remote *client.Store // non-nil with -connect (server metrics)
	var desc string
	switch {
	case *connect != "":
		if err := rejectGraphFlags("-connect"); err != nil {
			return err
		}
		// The -timeout budget also bounds every schema/setup round trip, so
		// an unresponsive server cannot hang the CLI.
		opts := []client.Option{client.WithRequestTimeout(*timeout)}
		if *storeName != "" {
			opts = append(opts, client.WithStore(*storeName))
		}
		c, err := client.Dial(ctx, *connect, opts...)
		if err != nil {
			return err
		}
		defer c.Close()
		if err := cli.SetupSchema(c, relations, loads); err != nil {
			return err
		}
		qr, remote = c, c
		desc = fmt.Sprintf("remote %s: %s", *connect, cli.DescribeSchema(ctx, c))
	case len(relations) > 0:
		if *datalog == "" {
			return fmt.Errorf("-relation requires a -datalog query over the defined schema")
		}
		if err := rejectGraphFlags("-relation"); err != nil {
			return err
		}
		if err := rejectQueryFlag(); err != nil {
			return err
		}
		store = repro.NewStore()
		qr = repro.Local(store)
		if err := cli.SetupSchema(qr, relations, loads); err != nil {
			return err
		}
		desc = "store: " + cli.DescribeSchema(ctx, qr)
	default:
		if len(loads) > 0 {
			return fmt.Errorf("-load requires the relations to be defined with -relation (or a -connect server that defines them)")
		}
		g, err := cli.BuildGraph(*datasetName, *model, *nodes, *edges, *seed)
		if err != nil {
			return err
		}
		store = repro.NewStore()
		qr = repro.Local(store)
		if err := dataset.Load(qr, g, *selectivity, *seed); err != nil {
			return err
		}
		desc = fmt.Sprintf("graph: %d nodes, %d edges", g.N, len(g.Edges))
	}

	var q *repro.Query
	var err error
	if *datalog != "" {
		q, err = qr.ParseQuery("adhoc", *datalog)
		if err != nil {
			var se *repro.SyntaxError
			if errors.As(err, &se) {
				loc := fmt.Sprintf("offset %d", se.Offset)
				if se.Atom != "" {
					loc = fmt.Sprintf("atom %q, offset %d", se.Atom, se.Offset)
				}
				return fmt.Errorf("-datalog %q: syntax error at %s: %s", *datalog, loc, se.Msg)
			}
			return err
		}
	} else {
		q, err = cli.NamedQuery(*queryName)
		if err != nil {
			return err
		}
	}

	fmt.Printf("%s; query %s: %s\n", desc, q.Name, q)
	if *showAGM && store != nil {
		if bound, err := store.AGMBound(q); err == nil {
			fmt.Printf("AGM bound: %.3g\n", bound)
		}
	}

	// Prepare once: the query is validated, the GAO fixed, and the
	// GAO-consistent indexes bound here (server-side under -connect); the
	// executions below are pure.
	prepStart := time.Now()
	p, err := qr.Prepare(q, repro.Options{
		Algorithm: repro.Algorithm(*engineName),
		Workers:   *workers,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", *engineName, err)
	}
	defer p.Close()
	prepElapsed := time.Since(prepStart)
	if *explain {
		switch pp := p.(type) {
		case *repro.Prepared:
			fmt.Print(pp.Explain())
		case *client.Prepared:
			text, err := pp.Explain(ctx)
			if err != nil {
				return fmt.Errorf("explain: %w", err)
			}
			fmt.Print(text)
		}
	}

	// Under -trace the executions run inside a client root span: every Count
	// request carries (trace id, root span id) on the wire, so the server —
	// and, through a router, every shard — records its spans under the same
	// trace, fetched and stitched after the run.
	runCtx := ctx
	var tr *trace.Trace
	var root *trace.Span
	if *showTrace {
		tr = trace.New(trace.NewID())
		root = tr.StartSpan(0, "client.query")
		root.SetStr("query", q.String())
		runCtx = trace.NewContext(ctx, root)
	}

	start := time.Now()
	var n int64
	for i := 0; i < max(*repeat, 1); i++ {
		n, err = p.Count(runCtx)
		if err != nil {
			return fmt.Errorf("%s: %w", *engineName, err)
		}
	}
	elapsed := time.Since(start)
	if root != nil {
		root.End()
	}
	if *repeat > 1 {
		fmt.Printf("%s: %d results; %d runs in %v (%v/run, prepared in %v)\n",
			*engineName, n, *repeat, elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(*repeat)).Round(time.Microsecond), prepElapsed.Round(time.Microsecond))
	} else {
		fmt.Printf("%s: %d results in %v (prepared in %v)\n",
			*engineName, n, elapsed.Round(time.Millisecond), prepElapsed.Round(time.Microsecond))
	}
	if tr != nil {
		spans := tr.Spans()
		remoteSpans, err := remote.Trace(ctx, uint64(tr.ID()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphjoin: trace fetch: %v\n", err)
		} else {
			spans = append(spans, remoteSpans...)
		}
		fmt.Printf("trace %016x:\n", uint64(tr.ID()))
		trace.Render(os.Stdout, spans)
	}
	if *showStats {
		st := p.Stats()
		fmt.Printf("stats: executions=%d outputs=%d seeks=%d probes=%d memoHits=%d constraints=%d freeTupleSteps=%d reuseHits=%d memoStores=%d\n",
			st.Executions, st.Outputs, st.Seeks, st.Probes, st.ProbeMemoHits, st.Constraints, st.FreeTupleSteps, st.ReuseHits, st.MemoStores)
		fmt.Printf("plan:  cacheHits=%d cacheMisses=%d gaoDerivations=%d indexBindings=%d\n",
			st.PlanCacheHits, st.PlanCacheMisses, st.GAODerivations, st.IndexBindings)
		if remote != nil {
			if err := printServerMetrics(ctx, remote, *storeName); err != nil {
				fmt.Fprintf(os.Stderr, "graphjoin: server metrics: %v\n", err)
			}
		}
	}
	return nil
}

// printServerMetrics fetches the server's metrics over the wire and prints
// the serving counters for the bound store — the remote half of -stats.
func printServerMetrics(ctx context.Context, remote *client.Store, storeName string) error {
	if storeName == "" {
		storeName = "default"
	}
	text, err := remote.Metrics(ctx)
	if err != nil {
		return err
	}
	samples, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		return err
	}
	sum := func(name string) float64 {
		return metrics.SumSamples(samples, name, "store", storeName)
	}
	fmt.Printf("server: requests=%.0f errors=%.0f rejected=%.0f connections=%.0f inflight=%.0f queued=%.0f creditStall=%.3gs\n",
		sum("graphjoind_requests_total"), sum("graphjoind_request_errors_total"),
		sum("graphjoind_rejected_total"), sum("graphjoind_connections"),
		sum("graphjoind_inflight_requests"), sum("graphjoind_queued_requests"),
		sum("graphjoind_rows_credit_stall_seconds_total"))
	fmt.Printf("server: leases=%.0f overlayDepth=%.0f walFsyncs=%.0f checkpoints=%.0f\n",
		sum("graphjoind_open_leases"), sum("graphjoind_overlay_depth"),
		sum("graphjoind_wal_fsync_seconds_count"), sum("graphjoind_checkpoint_seconds_count"))
	return nil
}

// rejectQueryFlag refuses -query in the general-schema mode, where only
// -datalog can name relations.
func rejectQueryFlag() error {
	var bad error
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "query" {
			bad = fmt.Errorf("-query names benchmark-schema patterns and conflicts with -relation; use -datalog")
		}
	})
	return bad
}
