package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lftj"
	"repro/internal/relation"
	"repro/internal/wire"
)

// runProbes measures what does not depend on the workload: the ladder (one
// query, one client, every rung) and the single-layer probes. Every probe is
// a median of sequential calls on the generated data.
func runProbes(ctx context.Context, cfg *config, in *inputs, exp *expected) (map[string]float64, error) {
	m := make(map[string]float64)
	e := &env{in: in, exp: exp, dir: cfg.dir, rng: rand.New(rand.NewSource(cfg.seed)), clients: 1}
	emb, err := newEmbedded(e)
	if err != nil {
		return nil, err
	}
	srv, err := newServed(e)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	rt, err := newRouted(e)
	if err != nil {
		return nil, err
	}
	defer rt.close()
	for _, probe := range []func() error{
		func() error { return ladderQueries(ctx, cfg, m, e, emb, srv, rt) },
		func() error { return ladderApply(cfg, m, e) },
		func() error { return relationProbes(cfg, m, e) },
		func() error { return engineProbes(ctx, cfg, m, e, emb) },
		func() error { return reproProbes(ctx, cfg, m, e, emb) },
		func() error { return wireProbes(cfg, m) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	m["durable.wal_overhead_us"] = m["ladder.apply.durable_us"] - m["ladder.apply.memory_us"]
	return m, nil
}

// counted returns a probe body that runs Count on p and checks the answer.
func counted(ctx context.Context, p repro.PreparedQuery, want answer) func() error {
	return func() error { return verify(ctx, p, modeCount, want) }
}

func ladderQueries(ctx context.Context, cfg *config, m map[string]float64, e *env, emb *embedded, srv *served, rt *routed) error {
	conn := srv.clients[0]
	triangle := emb.h["triangle"].Query()
	wireTriangle, err := conn.q.Prepare(triangle, options(repro.LFTJ))
	if err != nil {
		return err
	}
	// The engine rung runs internal/lftj on a plan compiled once, which is
	// what a Prepared executes: the next rung adds only what repro wraps
	// around the engine.
	engine := func(q *repro.Query, want answer) (func() error, error) {
		plan, err := core.NewPlan(q, emb.st.DB(), "lftj", q.Vars(), nil, false, "", nil)
		if err != nil {
			return nil, err
		}
		eng := lftj.Engine{Opts: lftj.Options{Plan: plan}}
		return func() error {
			n, err := eng.Count(ctx, q, emb.st.DB())
			if err == nil && n != want.count {
				err = wrong("engine count", n, want.count)
			}
			return err
		}, nil
	}
	embPoint, err := emb.q.Prepare(conn.queries[0], options(repro.LFTJ))
	if err != nil {
		return err
	}
	wantT, wantP := e.exp.byQuery["triangle"], e.exp.point[0]
	engineT, err := engine(triangle, wantT)
	if err != nil {
		return err
	}
	engineP, err := engine(conn.queries[0], wantP)
	if err != nil {
		return err
	}
	rungs := []struct {
		metric string
		unit   func(time.Duration) float64
		f      func() error
	}{
		{"ladder.triangle.engine_ms", ms, engineT},
		{"ladder.triangle.repro_ms", ms, counted(ctx, emb.h["triangle"], wantT)},
		{"ladder.triangle.wire_ms", ms, counted(ctx, wireTriangle, wantT)},
		{"ladder.triangle.router_ms", ms, counted(ctx, rt.h["triangle"], wantT)},
		{"ladder.point.engine_us", us, engineP},
		{"ladder.point.repro_us", us, counted(ctx, embPoint, wantP)},
		{"ladder.point.wire_us", us, counted(ctx, conn.handles[0], wantP)},
		{"ladder.point.router_us", us, counted(ctx, rt.point[0], wantP)},
	}
	// The rungs of one query take turns, so that a drift of the machine
	// lands on all of them alike and rung[n] − rung[n−1] stays a subtraction.
	for _, group := range []struct{ lo, hi, rounds, calls int }{
		{0, 4, cfg.n(21, 2), 1},
		{4, 8, cfg.n(15, 2), cfg.n(1000, 10)},
	} {
		samples := make([][]time.Duration, len(rungs))
		for round := 0; round < group.rounds; round++ {
			for k := group.lo; k < group.hi; k++ {
				// Each round starts one rung further on: whichever rung runs
				// first inherits the caches the last one left behind.
				i := group.lo + (k-group.lo+round)%(group.hi-group.lo)
				t0 := time.Now()
				for c := 0; c < group.calls; c++ {
					if err := rungs[i].f(); err != nil {
						return fmt.Errorf("%s: %w", rungs[i].metric, err)
					}
				}
				samples[i] = append(samples[i], time.Since(t0)/time.Duration(group.calls))
			}
		}
		for i := group.lo; i < group.hi; i++ {
			m[rungs[i].metric] = rungs[i].unit(medianDur(samples[i]))
		}
	}

	// One bulk stream over one connection: what the routed row leg is made of.
	r2h := emb.h["range2hop"].Query()
	wireR2H, err := conn.q.Prepare(r2h, options(repro.LFTJ))
	if err != nil {
		return err
	}
	d, err := timeN(cfg.n(15, 2), func() error { return verify(ctx, wireR2H, modeRows, e.exp.byQuery["range2hop"]) })
	if err != nil {
		return err
	}
	m["client.stream_rows_per_s"] = ratio(float64(e.exp.byQuery["range2hop"].count), d.Seconds())
	return nil
}

// ladderApply times the durable_churn batch at three rungs: an in-memory
// store, a durable store in process, and the durable store over the wire.
// A fourth store with checkpoints off gives the log's write amplification.
func ladderApply(cfg *config, m map[string]float64, e *env) error {
	n := cfg.n(300, 10)
	applyN := func(ch *churner, apply func(ins, dels [][]int64) error) (time.Duration, error) {
		return timeN(n, func() error {
			_, ins, dels := ch.nextBatch()
			return apply(ins, dels)
		})
	}
	// The in-memory store holds the same prepared handles as the durable one,
	// so both maintain the same cached indexes on every Apply.
	mem, err := newEmbedded(e)
	if err != nil {
		return err
	}
	d, err := applyN(newChurner(e.rng, e.in.nodes, 0), func(ins, dels [][]int64) error { return mem.st.Apply("edge", ins, dels) })
	if err != nil {
		return err
	}
	m["ladder.apply.memory_us"] = us(d)

	dur, err := newDurable(e)
	if err != nil {
		return err
	}
	// In process first, from vertices the wire client does not own.
	inProcess := newChurner(e.rng, e.in.nodes, 1)
	dur.churners = append(dur.churners, inProcess)
	d, err = applyN(inProcess, func(ins, dels [][]int64) error { return dur.st.Apply("edge", ins, dels) })
	if err == nil {
		m["ladder.apply.durable_us"] = us(d)
		cc := dur.clients[0]
		d, err = applyN(cc.churner, func(ins, dels [][]int64) error { return cc.q.Apply("edge", ins, dels) })
		m["ladder.apply.wire_us"] = us(d)
	}
	if cerr := dur.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp(e.dir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := durableOptions
	opts.CheckpointBytes, opts.MetricsName = 0, "-"
	st, _, err := repro.OpenStore(dir, opts)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := e.in.load(repro.Local(st)); err != nil {
		return err
	}
	ch := newChurner(e.rng, e.in.nodes, 0)
	before, tuples := walBytes(dir), 0
	for i := 0; i < n; i++ {
		_, ins, dels := ch.nextBatch()
		if err := st.Apply("edge", ins, dels); err != nil {
			return err
		}
		tuples += len(ins) + len(dels)
	}
	// A tuple is two 8-byte values to its user.
	m["durable.wal_bytes_per_user_byte"] = ratio(float64(walBytes(dir)-before), float64(16*tuples))
	return nil
}

func relationProbes(cfg *config, m map[string]float64, e *env) error {
	edges := e.in.rels["edge"]
	rel := relation.FromTuples("edge", 2, edges)
	var trie *relation.CSRTrie
	d, _ := timeN(cfg.n(9, 2), func() error { trie = relation.NewCSRTrie(rel); return nil })
	m["relation.build_ms"] = ms(d)

	scan := func(c relation.Cursor) int {
		n := 0
		for c.Open(); !c.AtEnd(); c.Next() {
			for c.Open(); !c.AtEnd(); c.Next() {
				n++
			}
			c.Up()
		}
		c.Up()
		return n
	}
	scanNs := func(newCursor func() relation.Cursor, want int) (float64, error) {
		var got int
		d, _ := timeN(cfg.n(9, 2), func() error { got = scan(newCursor()); return nil })
		if got != want {
			return 0, wrong("scanned tuples", got, want)
		}
		return ratio(float64(d.Nanoseconds()), float64(want)), nil
	}
	base, err := scanNs(func() relation.Cursor { return relation.NewCSRCursor(trie) }, len(edges))
	if err != nil {
		return err
	}
	m["relation.scan_ns_per_tuple"] = base

	// Seeded seeks at the first level and gap probes of seeded points.
	rng := rand.New(rand.NewSource(e.rng.Int63()))
	keys := make([]int64, cfg.n(20000, 200))
	for i := range keys {
		keys[i] = int64(rng.Intn(e.in.nodes))
	}
	cur := relation.NewCSRCursor(trie)
	cur.Open()
	t0 := time.Now()
	for _, k := range keys {
		cur.Up()
		cur.Open()
		cur.SeekGE(k)
	}
	m["relation.seek_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(keys)))
	point := make([]int64, 2)
	t0 = time.Now()
	for i, k := range keys {
		point[0], point[1] = k, keys[(i+1)%len(keys)]
		trie.ProbeGap(point)
	}
	m["relation.probegap_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(keys)))

	// The churn batch against the overlay: the cost of one Apply, and what ten
	// pending batches cost a scan.
	ch := newChurner(e.rng, e.in.nodes, 0)
	ov := relation.NewOverlay(rel)
	live := len(edges)
	d, _ = timeN(10, func() error {
		_, ins, dels := ch.nextBatch()
		ov = ov.Apply(ins, dels)
		live += len(ins) - len(dels)
		return nil
	})
	m["relation.overlay_apply_us"] = us(d)
	pending, err := scanNs(ov.NewCursor, live)
	if err != nil {
		return err
	}
	m["relation.overlay_scan_penalty"] = ratio(pending, base)
	return nil
}

// engineProbes reads the engines' own counters (Prepared.Stats deltas)
// around single executions on the embedded store.
func engineProbes(ctx context.Context, cfg *config, m map[string]float64, e *env, emb *embedded) error {
	exec := func(name string, mode execMode) (repro.ExecStats, time.Duration, error) {
		p := emb.h[name]
		before := p.Stats()
		d, err := timeN(cfg.n(5, 1), func() error { return verify(ctx, p, mode, e.exp.byQuery[name]) })
		st := p.Stats().Sub(before)
		return st, d, err
	}
	perExec := func(total int64, st repro.ExecStats) float64 {
		return ratio(float64(total), float64(st.Executions))
	}
	per := func(total int64, st repro.ExecStats, results int64) float64 {
		return ratio(perExec(total, st), float64(results))
	}
	for _, name := range []string{"triangle", "clique4"} {
		st, d, err := exec(name, modeCount)
		if err != nil {
			return err
		}
		m["lftj.seeks_per_result."+name] = per(st.Seeks, st, e.exp.byQuery[name].count)
		if name == "triangle" {
			m["lftj.ns_per_seek.triangle"] = ratio(float64(d.Nanoseconds()), perExec(st.Seeks, st))
		}
	}
	st, _, err := exec("pinned_projected", modeRows)
	if err != nil {
		return err
	}
	m["lftj.seeks.pinned_projected"] = perExec(st.Seeks, st)

	st, d, err := exec("path3", modeCount)
	if err != nil {
		return err
	}
	results := e.exp.byQuery["path3"].count
	m["minesweeper.probes_per_result.path3"] = per(st.Probes, st, results)
	m["minesweeper.probe_memo_hit_ratio.path3"] = ratio(float64(st.ProbeMemoHits), float64(st.Probes+st.ProbeMemoHits))
	m["minesweeper.constraints_per_result.path3"] = per(st.Constraints, st, results)
	m["minesweeper.ns_per_probe.path3"] = ratio(float64(d.Nanoseconds()), perExec(st.Probes, st))
	m["minesweeper.allocs_per_exec.path3"], err = allocsPer(cfg.n(3, 1), counted(ctx, emb.h["path3"], e.exp.byQuery["path3"]))
	return err
}

// reproProbes measures the fixed costs of the repro layer itself: one
// execution's allocations, the row iterator, Prepare with and without a
// cached plan, and the parser.
func reproProbes(ctx context.Context, cfg *config, m map[string]float64, e *env, emb *embedded) error {
	st := emb.st
	pointQ, err := parseNamed(emb.q, "point", fmt.Sprintf(pointText, e.in.pointKs[0]))
	if err != nil {
		return err
	}
	point, err := st.Prepare(pointQ, options(repro.LFTJ))
	if err != nil {
		return err
	}
	if m["repro.exec_allocs.point"], err = allocsPer(cfg.n(2000, 50), counted(ctx, point, e.exp.point[0])); err != nil {
		return err
	}
	want := e.exp.byQuery["triangle"]
	d, err := timeN(cfg.n(9, 2), func() error { return verify(ctx, emb.h["triangle"], modeRows, want) })
	if err != nil {
		return err
	}
	m["repro.rows_ns_per_row.triangle"] = ratio(float64(d.Nanoseconds()), float64(want.count))

	d, err = timeN(cfg.n(2000, 50), func() error { _, err := st.Prepare(pointQ, options(repro.LFTJ)); return err })
	if err != nil {
		return err
	}
	m["repro.prepare_hit_us"] = us(d)
	// Constants are part of the plan-cache key, so a point query on a vertex
	// nobody prepared compiles from scratch (over indexes already built).
	var misses []time.Duration
	for _, k := range e.in.missKs {
		q, err := parseNamed(emb.q, "point", fmt.Sprintf(pointText, k))
		if err != nil {
			return err
		}
		t0 := time.Now()
		p, err := st.Prepare(q, options(repro.LFTJ))
		if err != nil {
			return err
		}
		misses = append(misses, time.Since(t0))
		if s := p.Stats(); s.PlanCacheMisses != 1 {
			return wrong("plan-cache misses of a fresh point query", s.PlanCacheMisses, 1)
		}
	}
	m["repro.prepare_miss_us"] = us(medianDur(misses))
	text := fmt.Sprintf(pointText, e.in.pointKs[0])
	d, err = timeN(cfg.n(2000, 50), func() error { _, err := st.ParseQuery("point", text); return err })
	m["query.parse_us"] = us(d)
	return err
}

// wireProbes runs the codec alone over a bytes.Buffer: a Count request and
// its reply (frame + trace context + fields), and one 256-row chunk.
func wireProbes(cfg *config, m map[string]float64) error {
	var buf bytes.Buffer
	roundtrip := func() error {
		var req wire.Enc
		wire.EncodeTraceContext(&req, 0, 0)
		req.U64(7) // handle
		req.U64(0) // no transaction
		if err := wire.WriteFrame(&buf, wire.TCount, 42, req.Bytes()); err != nil {
			return err
		}
		_, _, body, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		d := wire.NewDec(body)
		wire.DecodeTraceContext(d)
		d.U64()
		d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		var resp wire.Enc
		resp.I64(123456)
		if err := wire.WriteFrame(&buf, wire.TCountOK, 42, resp.Bytes()); err != nil {
			return err
		}
		_, _, body, err = wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		d = wire.NewDec(body)
		if n := d.I64(); n != 123456 || d.Err() != nil {
			return wrong("decoded count", n, 123456)
		}
		return nil
	}
	n := cfg.n(20000, 200)
	t0 := time.Now()
	allocs, err := allocsPer(n, roundtrip)
	if err != nil {
		return err
	}
	m["wire.count_frame_roundtrip_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(n))
	m["wire.allocs_per_roundtrip"] = allocs

	const chunk = 256 // the server's default rows per chunk
	rows := make([][]int64, chunk)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(2 * i), int64(3 * i)}
	}
	d, err := timeN(cfg.n(2000, 20), func() error {
		var e wire.Enc
		e.Tuples(rows)
		if err := wire.WriteFrame(&buf, wire.TRowChunk, 42, e.Bytes()); err != nil {
			return err
		}
		_, _, body, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		dec := wire.NewDec(body)
		if got := dec.Tuples(); len(got) != chunk || dec.Err() != nil {
			return wrong("decoded rows", len(got), chunk)
		}
		return nil
	})
	m["wire.rows_chunk_ns_per_row"] = ratio(float64(d.Nanoseconds()), chunk)
	return err
}
