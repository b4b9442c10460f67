package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/router"
	"repro/server"
)

// storeSpec configures one served store: a preload — a benchmark graph, or a
// relation/load schema, or nothing — or, with route set, a routed cluster.
type storeSpec struct {
	name string
	// where is the "file:line" of the store's -stores section header, or
	// empty for a store the flags configure; errors name it.
	where                string
	relations, loads     []string
	dataset, model       string
	nodes, edges         int
	seed, selSeed        int64
	selectivity          int
	hasGraph, hasSampler bool
	route                []router.HostSpec
}

// storeSpecs returns every store to serve, sorted by name: the -stores
// sections, plus the default store the flags configure — an empty one when
// neither configures it. A [default] section and default-store flags are
// mutually exclusive so neither silently wins.
func (o *options) storeSpecs() ([]*storeSpec, error) {
	var specs []*storeSpec
	if o.storesPath != "" {
		var err error
		if specs, err = parseStoresConfig(o.storesPath); err != nil {
			return nil, err
		}
	}
	def, err := o.defaultSpec()
	if err != nil {
		return nil, err
	}
	configured := slices.ContainsFunc(specs, func(sp *storeSpec) bool { return sp.name == server.DefaultStore })
	switch {
	case def != nil && configured:
		return nil, fmt.Errorf("the default store is configured both by flags and by %s", o.storesPath)
	case def == nil && !configured:
		def = &storeSpec{name: server.DefaultStore}
	}
	if def != nil {
		specs = append(specs, def)
	}
	slices.SortFunc(specs, func(a, b *storeSpec) int { return strings.Compare(a.name, b.name) })
	return specs, nil
}

// defaultSpec returns the default store the flags configure, or nil when
// they configure none: a routed cluster (-route), a benchmark graph
// (-dataset/-model), or a -relation/-load schema — one of the three.
func (o *options) defaultSpec() (*storeSpec, error) {
	graph := o.dataset != "" || o.model != ""
	schema := len(o.relations) > 0 || len(o.loads) > 0
	switch {
	case o.route != "" && (graph || schema):
		return nil, errors.New("-route takes no preload (-dataset/-model/-relation/-load): the routed hosts own the data")
	case graph && schema:
		return nil, errors.New("-relation/-load conflict with a benchmark-graph preload (-dataset/-model)")
	case o.route != "":
		hosts, err := parseRoute(o.route)
		if err != nil {
			return nil, fmt.Errorf("-route: %w", err)
		}
		return &storeSpec{name: server.DefaultStore, route: hosts}, nil
	case !graph && !schema:
		return nil, nil
	}
	return &storeSpec{
		name: server.DefaultStore, relations: o.relations, loads: o.loads,
		dataset: o.dataset, model: o.model, nodes: o.nodes, edges: o.edges, seed: o.seed,
		selectivity: o.selectivity, selSeed: o.seed, hasGraph: graph,
	}, nil
}

// parseRoute parses a routed store's hosts: ADDR[/STORE] entries separated
// by commas or spaces, where a missing /STORE selects the host's default
// store.
func parseRoute(s string) ([]router.HostSpec, error) {
	var hosts []router.HostSpec
	for _, h := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }) {
		addr, store, slash := strings.Cut(h, "/")
		if addr == "" || (slash && store == "") {
			return nil, fmt.Errorf("malformed host %q, want ADDR[/STORE]", h)
		}
		hosts = append(hosts, router.HostSpec{Addr: addr, Store: store})
	}
	if len(hosts) == 0 {
		return nil, errors.New("no hosts, want ADDR[/STORE],...")
	}
	return hosts, nil
}

// parseStoresConfig parses the -stores file: "[name]" opens a store section;
// within one, "relation name:arity", "load name=path", "dataset NAME",
// "generate MODEL NODES EDGES SEED" and "selectivity S SEED" preload it, or
// "route ADDR[/STORE] ..." routes it over a cluster. Blank lines and
// #-comments are skipped. Every malformed line is one error naming
// file:line.
func parseStoresConfig(path string) ([]*storeSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []*storeSpec
	var cur *storeSpec
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
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return nil, fmt.Errorf("%s: empty store name", where)
			}
			if slices.ContainsFunc(specs, func(sp *storeSpec) bool { return sp.name == name }) {
				return nil, fmt.Errorf("%s: store %q defined twice", where, name)
			}
			cur = &storeSpec{name: name, where: where}
			specs = append(specs, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("%s: directive before the first [store] section", where)
		}
		directive, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		if err := cur.apply(directive, rest); err != nil {
			return nil, fmt.Errorf("%s: store %q: %w", where, cur.name, err)
		}
	}
	for _, sp := range specs {
		if sp.hasSampler && !sp.hasGraph {
			return nil, fmt.Errorf("%s: store %q: selectivity applies to a graph preload (dataset/generate)", sp.where, sp.name)
		}
	}
	return specs, nil
}

// apply adds one -stores directive to the section's spec.
func (sp *storeSpec) apply(directive, rest string) error {
	preload := sp.hasGraph || sp.hasSampler || len(sp.relations) > 0 || len(sp.loads) > 0
	switch directive {
	case "route":
		if sp.route != nil {
			return errors.New("route given twice")
		}
		if preload {
			return errors.New("route takes no preload (relation/load/dataset/generate/selectivity): the routed hosts own the data")
		}
		hosts, err := parseRoute(rest)
		if err != nil {
			return fmt.Errorf("route: %w", err)
		}
		sp.route = hosts
		return nil
	case "relation", "load", "dataset", "generate", "selectivity":
		if sp.route != nil {
			return fmt.Errorf("a routed store takes no %s: the routed hosts own the data", directive)
		}
	default:
		return fmt.Errorf("unknown directive %q", directive)
	}
	graph := directive == "dataset" || directive == "generate"
	switch {
	case graph && sp.hasGraph:
		return errors.New("already has a graph preload")
	case graph && (len(sp.relations) > 0 || len(sp.loads) > 0),
		sp.hasGraph && (directive == "relation" || directive == "load"):
		return errors.New("mixes a graph preload with relation/load")
	}
	switch directive {
	case "relation":
		sp.relations = append(sp.relations, rest)
	case "load":
		sp.loads = append(sp.loads, rest)
	case "dataset":
		sp.dataset, sp.hasGraph = rest, true
	case "generate":
		f := strings.Fields(rest)
		if len(f) != 4 {
			return errors.New("generate wants MODEL NODES EDGES SEED")
		}
		var errs [3]error
		sp.model = f[0]
		sp.nodes, errs[0] = strconv.Atoi(f[1])
		sp.edges, errs[1] = strconv.Atoi(f[2])
		sp.seed, errs[2] = strconv.ParseInt(f[3], 10, 64)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("generate: %w", err)
			}
		}
		sp.hasGraph = true
	case "selectivity":
		f := strings.Fields(rest)
		if len(f) != 2 {
			return errors.New("selectivity wants S SEED")
		}
		var e1, e2 error
		sp.selectivity, e1 = strconv.Atoi(f[0])
		sp.selSeed, e2 = strconv.ParseInt(f[1], 10, 64)
		if e1 != nil || e2 != nil {
			return errors.New("selectivity: bad number")
		}
		sp.hasSampler = true
	}
	return nil
}

// wrap prefixes err with the store's name and, for a -stores section, its
// file:line.
func (sp *storeSpec) wrap(err error) error {
	if sp.where == "" {
		return fmt.Errorf("store %q: %w", sp.name, err)
	}
	return fmt.Errorf("%s: store %q: %w", sp.where, sp.name, err)
}

// build creates the in-memory store with the spec's preload.
func (sp *storeSpec) build() (*repro.Store, error) {
	st := repro.NewStore()
	if sp.hasGraph {
		g, err := cli.BuildGraph(sp.dataset, sp.model, sp.nodes, sp.edges, sp.seed)
		if err != nil {
			return nil, sp.wrap(err)
		}
		// Without a selectivity directive the samples hold every vertex
		// (selectivity 0 samples like 1).
		if err := dataset.Load(repro.Local(st), g, sp.selectivity, sp.selSeed); err != nil {
			return nil, sp.wrap(err)
		}
	} else if err := cli.SetupSchema(repro.Local(st), sp.relations, sp.loads); err != nil {
		return nil, sp.wrap(err)
	}
	return st, nil
}

// openRouter dials the spec's hosts — each with cfg's dial retry, within a
// two-minute startup budget — and returns the router over them.
func (sp *storeSpec) openRouter(cfg router.Config) (*router.Router, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := router.Open(ctx, sp.route, cfg)
	if err != nil {
		return nil, sp.wrap(err)
	}
	return r, nil
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
