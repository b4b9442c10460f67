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
// the logs are closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "graphjoind: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var relations, loads cli.ListFlag
	var (
		listen      = flag.String("listen", ":7474", "address to serve on")
		storesPath  = flag.String("stores", "", "multi-tenant store config file (see the command doc)")
		datasetName = flag.String("dataset", "", "preload the default store with a catalog benchmark graph")
		model       = flag.String("model", "", "preload the default store with a generated graph: er | ba | hk")
		nodes       = flag.Int("nodes", 10000, "generated graph nodes (with -model)")
		edges       = flag.Int("edges", 50000, "generated graph edges (with -model)")
		seed        = flag.Int64("seed", 1, "generator seed (with -model)")
		selectivity = flag.Int("selectivity", 10, "node-sample selectivity for a preloaded graph")
		drain       = flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight queries")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus text) and /healthz; empty disables")
		maxInflight = flag.Int("max-inflight", 0, "per-store cap on concurrently running requests (0 = unlimited)")
		maxQueued   = flag.Int("max-queued", 0, "per-store queue depth beyond -max-inflight before requests are rejected as overloaded")
		dataDir     = flag.String("data-dir", "", "root directory for durable stores (one subdirectory per store); empty serves in-memory")
		fsync       = flag.String("fsync", "group", "WAL fsync policy with -data-dir: group | always | none")
		fsyncWindow = flag.Duration("fsync-window", 0, "group-commit accumulation window (how long a sync leader waits for more writers)")
		checkpoint  = flag.Duration("checkpoint-every", 5*time.Minute, "background checkpoint interval with -data-dir (0 disables)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 0, "with -data-dir, also checkpoint whenever the un-pruned WAL exceeds this many bytes (0 disables)")
		slowQueryMs = flag.Int64("slow-query-ms", 0, "log one JSON line per request slower than this many milliseconds (0 disables)")
		slowQueryLg = flag.String("slow-query-log", "", "file the slow-query lines append to (empty routes them to stderr)")
		traceSample = flag.Int("trace-sample", 1, "with -slow-query-ms, trace one in N untraced requests so slow-query lines carry span trees")
	)
	flag.Var(&relations, "relation", "define a default-store relation as name:arity (repeatable)")
	flag.Var(&loads, "load", "load a default-store relation from a file of integer rows, as name=path (repeatable)")
	flag.Parse()

	stores := make(map[string]*repro.Store)
	if *storesPath != "" {
		if err := loadStoresConfig(*storesPath, stores); err != nil {
			return err
		}
	}
	// The flag-configured default store; a [default] section in -stores and
	// the flags are mutually exclusive so neither silently wins.
	if *datasetName != "" || *model != "" || len(relations) > 0 || len(loads) > 0 {
		if _, ok := stores[server.DefaultStore]; ok {
			return fmt.Errorf("the default store is configured both by flags and by %s", *storesPath)
		}
		st, err := buildFlagStore(*datasetName, *model, *nodes, *edges, *seed, *selectivity, relations, loads)
		if err != nil {
			return err
		}
		stores[server.DefaultStore] = st
	}
	if _, ok := stores[server.DefaultStore]; !ok {
		stores[server.DefaultStore] = repro.NewStore()
	}

	// With -data-dir, swap every configured store for a durable one rooted
	// at DIR/<name>: recovered state wins over the preload (the preload
	// seeded the store on its first start and is already on disk), and every
	// write from here on is logged and fsynced before it is acknowledged.
	var durables []*repro.Store
	if *dataDir != "" {
		names := make([]string, 0, len(stores))
		for name := range stores {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st, err := openDurable(filepath.Join(*dataDir, name), name, *fsync, *fsyncWindow, *ckptBytes, stores[name])
			if err != nil {
				return err
			}
			stores[name] = st
			durables = append(durables, st)
		}
	}
	defer func() {
		for _, st := range durables {
			st.Close()
		}
	}()

	// Per-tenant admission control: the same budget for every store. A
	// tenant beyond its budget gets a typed overloaded error; other tenants
	// are unaffected.
	var limits map[string]server.Limits
	if *maxInflight > 0 {
		limits = make(map[string]server.Limits, len(stores))
		for name := range stores {
			limits[name] = server.Limits{MaxInflight: *maxInflight, MaxQueued: *maxQueued}
		}
	}

	slowLog, closeSlowLog, err := cli.OpenSlowQueryLog(*slowQueryLg)
	if err != nil {
		return err
	}
	defer closeSlowLog()

	srv := server.New(server.Config{Stores: stores, Limits: limits, Logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "graphjoind: "+format+"\n", args...)
	}, Trace: server.TraceConfig{
		SlowQuery:    time.Duration(*slowQueryMs) * time.Millisecond,
		SlowQueryLog: slowLog,
		SampleEvery:  *traceSample,
	}})

	l, err := net.Listen("tcp", *listen)
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
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsSrv = &http.Server{Handler: cli.ObservabilityMux(srv.DebugTracesHandler())}
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
	if len(durables) > 0 && *checkpoint > 0 {
		go func() {
			t := time.NewTicker(*checkpoint)
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
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
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

// openDurable opens the durable store for one tenant, prints its recovery
// banner, and — only on a first start over an empty directory — seeds it
// with the flag/config-preloaded in-memory store's schema and contents. On
// every later start the disk is the source of truth and the preload is
// ignored, so changing preload flags cannot silently fork a live dataset.
func openDurable(dir, name, fsync string, window time.Duration, ckptBytes int64, seed *repro.Store) (*repro.Store, error) {
	st, info, err := repro.OpenStore(dir, repro.DurabilityOptions{Sync: fsync, GroupWindow: window, MetricsName: name, CheckpointBytes: ckptBytes})
	if err != nil {
		return nil, fmt.Errorf("store %q: %w", name, err)
	}
	switch {
	case info.LastLSN == 0 && info.SnapshotLSN == 0:
		fmt.Printf("graphjoind: store %s: fresh data dir %s\n", name, dir)
		if err := importStore(st, seed); err != nil {
			st.Close()
			return nil, fmt.Errorf("store %q: seeding preload: %w", name, err)
		}
	default:
		fmt.Printf("graphjoind: store %s: recovered snapshot lsn=%d + %d replayed records, durable through lsn=%d\n",
			name, info.SnapshotLSN, info.Replayed, info.LastLSN)
	}
	if info.TailErr != nil {
		fmt.Printf("graphjoind: store %s: unclean shutdown: %v\n", name, info.TailErr)
	}
	return st, nil
}

// importStore copies every relation of an in-memory store into a durable
// one through the logged write path (DefineRelation + Load), so the seeded
// contents are durable before the server starts accepting writes.
func importStore(dst, src *repro.Store) error {
	for _, name := range src.Relations() {
		arity, err := src.Arity(name)
		if err != nil {
			return err
		}
		if err := dst.DefineRelation(name, arity); err != nil {
			return err
		}
		r, err := src.DB().Relation(name)
		if err != nil {
			return err
		}
		if err := dst.Load(name, r.Tuples()); err != nil {
			return err
		}
	}
	return nil
}

// buildFlagStore constructs the default store from the command-line flags:
// either a benchmark graph (dataset or generator model) or a -relation/-load
// schema, but not both — the graph schema is canned and loading over it
// would break its invariants.
func buildFlagStore(datasetName, model string, nodes, edges int, seed int64, selectivity int, relations, loads []string) (*repro.Store, error) {
	graphMode := datasetName != "" || model != ""
	if graphMode && (len(relations) > 0 || len(loads) > 0) {
		return nil, fmt.Errorf("-relation/-load conflict with a benchmark-graph preload (-dataset/-model)")
	}
	st := repro.NewStore()
	if graphMode {
		g, err := cli.BuildGraph(datasetName, model, nodes, edges, seed)
		if err != nil {
			return nil, err
		}
		if err := dataset.Load(repro.Local(st), g, selectivity, seed); err != nil {
			return nil, err
		}
		return st, nil
	}
	if err := cli.SetupSchema(repro.Local(st), relations, loads); err != nil {
		return nil, err
	}
	return st, nil
}

// loadStoresConfig parses the -stores file: "[name]" opens a store section;
// within one, "relation name:arity", "load name=path", "dataset NAME",
// "generate MODEL NODES EDGES SEED", and "selectivity S SEED" configure it.
// Blank lines and #-comments are skipped.
func loadStoresConfig(path string, stores map[string]*repro.Store) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type section struct {
		name                  string
		relations, loads      []string
		dataset, model        string
		nodes, edges          int
		seed                  int64
		selectivity, selSeed  int
		hasGraph, hasSelector bool
	}
	var sections []*section
	var cur *section
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		where := fmt.Sprintf("%s:%d", path, lineNo+1)
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return fmt.Errorf("%s: malformed section header %q", where, line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return fmt.Errorf("%s: empty store name", where)
			}
			cur = &section{name: name}
			sections = append(sections, cur)
			continue
		}
		if cur == nil {
			return fmt.Errorf("%s: directive before the first [store] section", where)
		}
		directive, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch directive {
		case "relation":
			cur.relations = append(cur.relations, rest)
		case "load":
			cur.loads = append(cur.loads, rest)
		case "dataset":
			if cur.hasGraph {
				return fmt.Errorf("%s: store %q already has a graph preload", where, cur.name)
			}
			cur.dataset, cur.hasGraph = rest, true
		case "generate":
			if cur.hasGraph {
				return fmt.Errorf("%s: store %q already has a graph preload", where, cur.name)
			}
			f := strings.Fields(rest)
			if len(f) != 4 {
				return fmt.Errorf("%s: generate wants MODEL NODES EDGES SEED", where)
			}
			var errs [3]error
			cur.model = f[0]
			cur.nodes, errs[0] = strconv.Atoi(f[1])
			cur.edges, errs[1] = strconv.Atoi(f[2])
			cur.seed, errs[2] = parseInt64(f[3])
			for _, e := range errs {
				if e != nil {
					return fmt.Errorf("%s: generate: %v", where, e)
				}
			}
			cur.hasGraph = true
		case "selectivity":
			f := strings.Fields(rest)
			if len(f) != 2 {
				return fmt.Errorf("%s: selectivity wants S SEED", where)
			}
			var e1, e2 error
			cur.selectivity, e1 = strconv.Atoi(f[0])
			cur.selSeed, e2 = strconv.Atoi(f[1])
			if e1 != nil || e2 != nil {
				return fmt.Errorf("%s: selectivity: bad number", where)
			}
			cur.hasSelector = true
		default:
			return fmt.Errorf("%s: unknown directive %q", where, directive)
		}
	}
	for _, sec := range sections {
		if _, ok := stores[sec.name]; ok {
			return fmt.Errorf("%s: store %q defined twice", path, sec.name)
		}
		if sec.hasGraph && (len(sec.relations) > 0 || len(sec.loads) > 0) {
			return fmt.Errorf("%s: store %q mixes a graph preload with relation/load", path, sec.name)
		}
		if sec.hasSelector && !sec.hasGraph {
			return fmt.Errorf("%s: store %q: selectivity applies to a graph preload (dataset/generate)", path, sec.name)
		}
		st := repro.NewStore()
		if sec.hasGraph {
			g, err := cli.BuildGraph(sec.dataset, sec.model, sec.nodes, sec.edges, sec.seed)
			if err != nil {
				return fmt.Errorf("%s: store %q: %w", path, sec.name, err)
			}
			// Without a selectivity directive the samples hold every vertex
			// (selectivity 0 samples like 1).
			if err := dataset.Load(repro.Local(st), g, sec.selectivity, int64(sec.selSeed)); err != nil {
				return fmt.Errorf("%s: store %q: %w", path, sec.name, err)
			}
		} else if err := cli.SetupSchema(repro.Local(st), sec.relations, sec.loads); err != nil {
			return fmt.Errorf("%s: store %q: %w", path, sec.name, err)
		}
		stores[sec.name] = st
	}
	return nil
}

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
