// Command graphjoinrouter fronts a cluster of graphjoind hosts as one
// logical store — the reproduction's distributed query fabric. It speaks the
// same wire protocol as graphjoind, so existing clients (graphjoin -connect,
// graphjoinload, repro/client programmatically) drive a cluster unmodified:
// writes broadcast to every host, prepared queries fan out with each host
// executing one part of the leading attribute's values — host i of n runs
// part i of n, cut from its own copy of the data — and the router sums
// counts, concatenates row streams in host order, and folds aggregate
// partials back into single-store answers.
//
// A three-host cluster:
//
//	graphjoinrouter -listen :7475 -hosts 10.0.0.1:7474,10.0.0.2:7474,10.0.0.3:7474
//
// Larger topologies read an INI-ish config file (-topology), one section per
// host:
//
//	# cluster.conf
//	[shard-a]
//	addr 10.0.0.1:7474
//	store default
//	[shard-b]
//	addr 10.0.0.2:7474
//	[shard-c]
//	addr 10.0.0.3:7474
//
// With -metrics-addr the router exposes its fan-out instrumentation
// (graphjoinrouter_fanout_width, graphjoinrouter_host_request_seconds,
// graphjoinrouter_straggler_gap_seconds, graphjoinrouter_retries_total)
// alongside the shared serving metrics. The router drains on SIGINT/SIGTERM:
// in-flight fan-outs finish (up to -drain), then the host connections close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/router"
	"repro/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "graphjoinrouter: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen       = flag.String("listen", ":7475", "address to serve the wire protocol on")
		hostsFlag    = flag.String("hosts", "", "comma-separated graphjoind host addresses")
		topology     = flag.String("topology", "", "cluster config file (see the command doc); exclusive with -hosts")
		storeName    = flag.String("store", server.DefaultStore, "store to select on every host")
		serveAs      = flag.String("serve-as", server.DefaultStore, "store name the routed cluster is served under")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-host request timeout (0 = none)")
		retries      = flag.Int("retries", 2, "bounded retries for idempotent reads after a host admission rejection")
		retryBackoff = flag.Duration("retry-backoff", 25*time.Millisecond, "initial backoff between read retries (doubles per attempt)")
		dialAttempts = flag.Int("dial-attempts", 5, "connection attempts per host at startup")
		dialBackoff  = flag.Duration("dial-backoff", 100*time.Millisecond, "initial backoff between dial attempts (doubles per attempt)")
		drain        = flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight queries")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus text) and /healthz; empty disables")
		slowQueryMs  = flag.Int64("slow-query-ms", 0, "log one JSON line per request slower than this many milliseconds (0 disables)")
		slowQueryLg  = flag.String("slow-query-log", "", "file the slow-query lines append to (empty routes them to stderr)")
		traceSample  = flag.Int("trace-sample", 1, "with -slow-query-ms, trace one in N untraced requests so slow-query lines carry span trees")
	)
	// A bad flag is one line on stderr, like every other startup error.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			flag.CommandLine.SetOutput(os.Stderr)
			flag.Usage()
			return nil
		}
		return err
	}

	specs, err := resolveTopology(*hostsFlag, *topology, *storeName)
	if err != nil {
		return err
	}

	dialCtx, dialCancel := context.WithTimeout(context.Background(), 2*time.Minute)
	r, err := router.Open(dialCtx, specs, router.Config{
		RequestTimeout: *reqTimeout,
		MaxRetries:     *retries,
		RetryBackoff:   *retryBackoff,
		DialAttempts:   *dialAttempts,
		DialBackoff:    *dialBackoff,
	})
	dialCancel()
	if err != nil {
		return err
	}
	defer r.Close()

	slowLog, closeSlowLog, err := cli.OpenSlowQueryLog(*slowQueryLg)
	if err != nil {
		return err
	}
	defer closeSlowLog()

	srv := server.New(server.Config{
		Queriers: map[string]repro.Querier{*serveAs: r},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "graphjoinrouter: "+format+"\n", args...)
		},
		Trace: server.TraceConfig{
			SlowQuery:    time.Duration(*slowQueryMs) * time.Millisecond,
			SlowQueryLog: slowLog,
			SampleEvery:  *traceSample,
		},
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	addrs := make([]string, len(specs))
	for i, s := range specs {
		addrs[i] = s.Addr
	}
	fmt.Printf("graphjoinrouter: routing store %s over %d hosts [%s] on %s\n",
		*serveAs, len(addrs), strings.Join(addrs, " "), l.Addr())

	// The observability sidecar listener, identical to graphjoind's: the
	// router's fan-out metrics live in the same default registry as the
	// serving metrics of the frontend listener, and the pprof and trace
	// surfaces match the shards'.
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsSrv = &http.Server{Handler: cli.ObservabilityMux(srv.DebugTracesHandler())}
		go func() {
			if err := metricsSrv.Serve(ml); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "graphjoinrouter: metrics server: %v\n", err)
			}
		}()
		fmt.Printf("graphjoinrouter: metrics on http://%s/metrics\n", ml.Addr())
		defer func() {
			closeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			metricsSrv.Shutdown(closeCtx)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	select {
	case err := <-serveDone:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("graphjoinrouter: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "graphjoinrouter: drain cut short: %v\n", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	fmt.Println("graphjoinrouter: bye")
	return nil
}

// resolveTopology builds the host list from either the -hosts flag or a
// -topology config file — exactly one of the two sources.
func resolveTopology(hostsFlag, topologyPath, storeName string) ([]router.HostSpec, error) {
	if (hostsFlag == "") == (topologyPath == "") {
		return nil, fmt.Errorf("exactly one of -hosts or -topology is required")
	}
	if topologyPath != "" {
		return loadTopology(topologyPath)
	}
	var specs []router.HostSpec
	for _, addr := range strings.Split(hostsFlag, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		specs = append(specs, router.HostSpec{Addr: addr, Store: storeName})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-hosts names no addresses")
	}
	return specs, nil
}

// loadTopology parses the -topology file: one "[name]" section per host
// with "addr HOST:PORT" (required) and "store NAME" (optional, defaults to
// the server's default store). Blank lines and #-comments are skipped.
func loadTopology(path string) ([]router.HostSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []router.HostSpec
	cur := -1
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		where := fmt.Sprintf("%s:%d", path, lineNo+1)
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("%s: malformed section header %q", where, line)
			}
			if name := strings.TrimSpace(line[1 : len(line)-1]); name == "" {
				return nil, fmt.Errorf("%s: empty host name", where)
			}
			specs = append(specs, router.HostSpec{Store: server.DefaultStore})
			cur = len(specs) - 1
			continue
		}
		directive, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch directive {
		case "addr":
			if cur < 0 {
				return nil, fmt.Errorf("%s: addr before the first [host] section", where)
			}
			if specs[cur].Addr != "" {
				return nil, fmt.Errorf("%s: host already has an addr", where)
			}
			specs[cur].Addr = rest
		case "store":
			if cur < 0 {
				return nil, fmt.Errorf("%s: store before the first [host] section", where)
			}
			specs[cur].Store = rest
		default:
			return nil, fmt.Errorf("%s: unknown directive %q", where, directive)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%s: no host sections", path)
	}
	for i, s := range specs {
		if s.Addr == "" {
			return nil, fmt.Errorf("%s: host section %d has no addr", path, i+1)
		}
	}
	return specs, nil
}
