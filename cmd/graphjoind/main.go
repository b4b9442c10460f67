// Command graphjoind serves repro stores to remote clients over the wire
// protocol — the reproduction's query server. Clients (graphjoin -connect,
// or repro/client programmatically) define schemas, load and update
// relations, and run prepared graph-pattern queries; execution happens here,
// against shared indexes.
//
// A single-tenant server with an empty default store:
//
//	graphjoind -listen :7474
//
// Preloading the default store with a general schema:
//
//	graphjoind -relation follows:2 -load follows=follows.tsv
//
// Preloading the default store with a benchmark graph (the schema graphjoin's
// named queries expect):
//
//	graphjoind -dataset ca-GrQc -selectivity 10
//	graphjoind -model ba -nodes 10000 -edges 50000 -seed 1
//
// Multi-tenant serving from a config file (-stores), one section per store:
//
//	# stores.conf
//	[social]
//	relation follows:2
//	load follows=/data/follows.tsv
//	[bench]
//	generate ba 10000 50000 1
//	selectivity 10 1
//
// A store can also be routed: it fronts a cluster of graphjoind hosts that
// each hold the full data (package router). Writes broadcast to every host,
// and a query fans out with host i of n running part i of n of the leading
// attribute's values; the answers merge into a single store's. -route
// routes the default store, and a "route" directive routes a -stores
// section; each host is ADDR[/STORE], where STORE defaults to the host's
// default store:
//
//	graphjoind -listen :7475 -route 10.0.0.1:7474,10.0.0.2:7474,10.0.0.3:7474
//
//	# cluster.conf
//	[social]
//	route 10.0.0.1:7474/social 10.0.0.2:7474/social
//
// A routed store takes no preload, is never made durable (its hosts own the
// data), and is closed once the server has drained. -request-timeout,
// -retries and -dial-attempts tune its host connections.
//
// With -data-dir the server is durable: every acknowledged write is fsynced
// to a per-store write-ahead log under DIR/<store> before the client sees
// success (policy via -fsync), a background snapshotter checkpoints each
// store every -checkpoint-every (and, with -checkpoint-bytes, whenever the
// un-pruned log outgrows that size budget), and a restart on the same
// -data-dir
// recovers to the last fsynced write — preload flags seed a store only on
// its first start, after which the disk is the source of truth:
//
//	graphjoind -data-dir /var/lib/graphjoind -model ba -nodes 10000 -edges 50000
//
// With -metrics-addr the server exposes Prometheus text metrics and a
// liveness probe over HTTP (see docs/OPERATIONS.md for the full inventory),
// and -max-inflight/-max-queued bound each store's concurrent work — requests
// beyond the budget fail fast with a typed overloaded error clients can
// detect with errors.Is(err, client.ErrOverloaded):
//
//	graphjoind -metrics-addr :9090 -max-inflight 64 -max-queued 128
//
// The server drains on SIGINT/SIGTERM: in-flight queries finish (up to
// -drain), new requests are refused, then a final checkpoint is written and
// the logs and host connections are closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/router"
	"repro/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "graphjoind: %v\n", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	listen, storesPath, route string
	dataset, model            string
	nodes, edges, selectivity int
	seed                      int64
	relations, loads          cli.ListFlag
	drain                     time.Duration
	metricsAddr               string
	maxInflight, maxQueued    int
	dataDir, fsync            string
	fsyncWindow, checkpoint   time.Duration
	ckptBytes, slowQueryMs    int64
	slowQueryLog              string
	traceSample               int
	reqTimeout                time.Duration
	retries, dialAttempts     int
}

// parseFlags parses the command line. A bad flag is one error, with no usage
// text, so it prints as one stderr line like every other startup error;
// -help prints the usage and returns flag.ErrHelp.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("graphjoind", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.listen, "listen", ":7474", "address to serve on")
	fs.StringVar(&o.storesPath, "stores", "", "multi-tenant store config file (see the command doc)")
	fs.StringVar(&o.route, "route", "", "route the default store over a cluster of graphjoind hosts, as ADDR[/STORE],...")
	fs.StringVar(&o.dataset, "dataset", "", "preload the default store with a catalog benchmark graph")
	fs.StringVar(&o.model, "model", "", "preload the default store with a generated graph: er | ba | hk")
	fs.IntVar(&o.nodes, "nodes", 10000, "generated graph nodes (with -model)")
	fs.IntVar(&o.edges, "edges", 50000, "generated graph edges (with -model)")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed (with -model)")
	fs.IntVar(&o.selectivity, "selectivity", 10, "node-sample selectivity for a preloaded graph")
	fs.Var(&o.relations, "relation", "define a default-store relation as name:arity (repeatable)")
	fs.Var(&o.loads, "load", "load a default-store relation from a file of integer rows, as name=path (repeatable)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "how long shutdown waits for in-flight queries")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "HTTP address serving /metrics (Prometheus text) and /healthz; empty disables")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "per-store cap on concurrently running requests (0 = unlimited)")
	fs.IntVar(&o.maxQueued, "max-queued", 0, "per-store queue depth beyond -max-inflight before requests are rejected as overloaded")
	fs.StringVar(&o.dataDir, "data-dir", "", "root directory for durable stores (one subdirectory per store); empty serves in-memory")
	fs.StringVar(&o.fsync, "fsync", "group", "WAL fsync policy with -data-dir: group | always | none")
	fs.DurationVar(&o.fsyncWindow, "fsync-window", 0, "group-commit accumulation window (how long a sync leader waits for more writers)")
	fs.DurationVar(&o.checkpoint, "checkpoint-every", 5*time.Minute, "background checkpoint interval with -data-dir (0 disables)")
	fs.Int64Var(&o.ckptBytes, "checkpoint-bytes", 0, "with -data-dir, also checkpoint whenever the un-pruned WAL exceeds this many bytes (0 disables)")
	fs.Int64Var(&o.slowQueryMs, "slow-query-ms", 0, "log one JSON line per request slower than this many milliseconds (0 disables)")
	fs.StringVar(&o.slowQueryLog, "slow-query-log", "", "file the slow-query lines append to (empty routes them to stderr)")
	fs.IntVar(&o.traceSample, "trace-sample", 1, "with -slow-query-ms, trace one in N untraced requests so slow-query lines carry span trees")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 30*time.Second, "routed stores: per-host request timeout (0 = none)")
	fs.IntVar(&o.retries, "retries", 2, "routed stores: bounded retries for idempotent reads after a host admission rejection")
	fs.IntVar(&o.dialAttempts, "dial-attempts", 5, "routed stores: connection attempts per host at startup")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return nil, err
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	specs, err := o.storeSpecs()
	if err != nil {
		return err
	}

	// Build every store. With -data-dir a local store is swapped for a
	// durable one rooted at DIR/<name>: recovered state wins over the
	// preload (the preload seeded the store on its first start and is
	// already on disk), and every write from here on is logged and fsynced
	// before it is acknowledged. A routed store's hosts own its data, so it
	// is neither preloaded nor made durable here. The deferred closes run
	// after the server has drained.
	queriers := make(map[string]repro.Querier, len(specs))
	var durables []*repro.Store
	var routers []*router.Router
	defer func() {
		for _, r := range routers {
			r.Close()
		}
		for _, st := range durables {
			st.Close()
		}
	}()
	for _, sp := range specs {
		if sp.route != nil {
			r, err := sp.openRouter(router.Config{RequestTimeout: o.reqTimeout, MaxRetries: o.retries, DialAttempts: o.dialAttempts})
			if err != nil {
				return err
			}
			routers = append(routers, r)
			queriers[sp.name] = r
			fmt.Printf("graphjoind: store %s: routing over %d hosts [%s]\n", sp.name, len(sp.route), strings.Join(r.Hosts(), " "))
			continue
		}
		st, err := sp.build()
		if err != nil {
			return err
		}
		if o.dataDir != "" {
			if st, err = openDurable(filepath.Join(o.dataDir, sp.name), sp.name, o.fsync, o.fsyncWindow, o.ckptBytes, st); err != nil {
				return err
			}
			durables = append(durables, st)
		}
		queriers[sp.name] = repro.Local(st)
	}

	// Per-tenant admission control: the same budget for every store. A
	// tenant beyond its budget gets a typed overloaded error; other tenants
	// are unaffected.
	var limits map[string]server.Limits
	if o.maxInflight > 0 {
		limits = make(map[string]server.Limits, len(queriers))
		for name := range queriers {
			limits[name] = server.Limits{MaxInflight: o.maxInflight, MaxQueued: o.maxQueued}
		}
	}

	slowLog, closeSlowLog, err := openSlowQueryLog(o.slowQueryLog)
	if err != nil {
		return err
	}
	defer closeSlowLog()

	srv := server.New(server.Config{Queriers: queriers, Limits: limits, Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "graphjoind: "+format+"\n", args...)
	}, Trace: server.TraceConfig{
		SlowQuery:    time.Duration(o.slowQueryMs) * time.Millisecond,
		SlowQueryLog: slowLog,
		SampleEvery:  o.traceSample,
	}})

	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	names := srv.Stores()
	sort.Strings(names)
	fmt.Printf("graphjoind: serving stores [%s] on %s\n", strings.Join(names, " "), l.Addr())

	// The observability sidecar listener: /metrics in Prometheus text format,
	// /healthz for liveness probes, /debug/pprof for profiling, /debug/traces
	// for the retained request traces. It binds before the banner-reading
	// scripts proceed and is torn down with the server.
	if o.metricsAddr != "" {
		ml, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsSrv := &http.Server{Handler: observabilityMux(srv.DebugTracesHandler())}
		go func() {
			if err := metricsSrv.Serve(ml); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "graphjoind: metrics server: %v\n", err)
			}
		}()
		fmt.Printf("graphjoind: metrics on http://%s/metrics\n", ml.Addr())
		defer func() {
			closeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			metricsSrv.Shutdown(closeCtx)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The background snapshotter: checkpoint every durable store on a
	// ticker, bounding log growth and recovery time. Checkpoints serialize
	// and write outside the stores' write path, concurrent with traffic.
	if len(durables) > 0 && o.checkpoint > 0 {
		go func() {
			t := time.NewTicker(o.checkpoint)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					for _, st := range durables {
						if err := st.Checkpoint(); err != nil {
							fmt.Fprintf(os.Stderr, "graphjoind: checkpoint: %v\n", err)
						}
					}
				}
			}
		}()
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	select {
	case err := <-serveDone:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("graphjoind: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "graphjoind: drain cut short: %v\n", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	// A final checkpoint makes the next start replay-free; the deferred
	// Close then just fsyncs and releases the logs.
	for _, st := range durables {
		if err := st.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "graphjoind: final checkpoint: %v\n", err)
		}
	}
	fmt.Println("graphjoind: bye")
	return nil
}

// observabilityMux builds the -metrics-addr sidecar's HTTP mux: Prometheus
// text metrics, a liveness probe, the Go pprof surfaces, and the server's
// retained traces. A routed store's fan-out metrics share the default
// registry with the serving metrics, so a cluster's coordinator and shards
// are watched and profiled the same way.
func observabilityMux(traces http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Default().Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", traces)
	return mux
}

// openSlowQueryLog opens (appending) the file the slow-query log writes to.
// An empty path returns a nil writer, which routes slow-query lines through
// the server's diagnostic log instead.
func openSlowQueryLog(path string) (io.Writer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("slow-query log: %w", err)
	}
	return f, f.Close, nil
}
