package main

import (
	"fmt"
	"time"
)

// layerMetrics assembles one workload's per-layer metrics: the probes (the
// same for every workload), the span and counter arithmetic of its traced
// segment, and the diagnostics of its untraced pass. Metrics of layers the
// workload does not exercise stay 0. An error means a cross-check between a
// client-side ledger and a server-side counter failed.
func layerMetrics(r *result, probes map[string]float64) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = probes[d.name]
	}
	seg := r.traced
	tree := buildTree(seg.spans)
	if err := checkNesting(seg.spans); err != nil {
		return m, err
	}
	var err error
	switch r.def.name {
	case "embedded_joins":
		for _, s := range embeddedMix {
			m["repro.q."+s.query+"_ms"] = ms(medianOf(tree.named("repro.count", s.query), tree.named("repro.rows", s.query)))
		}
	case "served_point":
		err = servedLayer(m, seg, tree)
	case "routed_fanout":
		routedLayer(m, seg, tree, probes["ladder.triangle.repro_ms"])
	case "durable_churn":
		durableLayer(m, seg, tree)
	}
	if c := seg.counters; c != nil {
		m["server.requests_per_op"] = ratio(c["requests"], float64(seg.loop.attempted))
		var busy time.Duration
		for _, l := range seg.loop.lat {
			busy += l
		}
		m["server.credit_stall_share"] = ratio(c["credit_stall_s"], busy.Seconds())
	}

	// The untraced pass: tails, the benchmark's own noise, and the collector.
	var lat []time.Duration
	var rates []float64
	var cpu, gcCPU, gcPause time.Duration
	attempted, failed := r.attempted()
	for _, s := range r.segments {
		lat = append(lat, s.loop.lat...)
		rates = append(rates, s.loop.wallOpsPerSec())
		cpu += s.loop.cpu
		gcCPU += s.loop.gcCPU
		gcPause += s.loop.gcPause
	}
	m["load.ops"] = float64(attempted - failed)
	m["load.failed_share"] = ratio(float64(failed), float64(attempted))
	m["load.op_p90_ms"] = ms(quantile(lat, 0.90))
	m["load.op_p99_ms"] = ms(quantile(lat, 0.99))
	m["load.op_max_ms"] = ms(quantile(lat, 1))
	lo, hi := rates[0], rates[0]
	for _, v := range rates {
		lo, hi = min(lo, v), max(hi, v)
	}
	m["load.wall_ops_per_s"] = median(rates)
	m["load.segment_spread"] = ratio(hi-lo, median(rates))
	m["runtime.gc_cpu_share"] = ratio(gcCPU.Seconds(), cpu.Seconds())
	m["runtime.gc_pause_ms_per_op"] = ratio(ms(gcPause), float64(attempted-failed))
	// One traced segment against the median untraced one, not the fastest.
	_, raw := r.endToEnd()
	untraced := median(raw["op_p50_ms"])
	m["trace.overhead_share"] = ratio(ms(medianDur(seg.loop.lat))-untraced, untraced)
	return m, err
}

func durations(groups ...[]span) []time.Duration {
	var ds []time.Duration
	for _, g := range groups {
		for _, s := range g {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

func medianOf(groups ...[]span) time.Duration { return medianDur(durations(groups...)) }

func servedLayer(m map[string]float64, seg *segment, tree *spanTree) error {
	counts := tree.named("client.count", "point")
	rows := tree.named("client.rows", "point")
	m["client.count_rtt_us"] = us(medianOf(counts))
	m["client.rows_rtt_us"] = us(medianOf(rows))
	m["client.oneshot_rtt_us"] = us(medianOf(tree.named("client.oneshot", "point")))
	var first, self []time.Duration
	for _, s := range rows {
		if s.FirstRow != 0 {
			first = append(first, time.Duration(s.FirstRow-s.Start))
		}
	}
	m["client.rows_first_row_us"] = us(medianDur(first))
	for _, s := range counts {
		self = append(self, s.dur()-tree.covered(s))
	}
	m["server.store_us"] = us(medianOf(tree.named("store.count", "point")))
	m["server.transport_self_us"] = us(medianDur(self))
	m["server.transport_share"] = ratio(m["server.transport_self_us"], m["client.count_rtt_us"])
	m["core.plan_cache_hit_ratio"] = ratio(float64(seg.planHits), float64(seg.planHits+seg.planMisses))
	// The client's ledger against the server's own counter: every operation
	// sends a fixed number of requests, so the two must agree exactly.
	if want := float64(seg.loop.attempted * servedRequestsPerOp); seg.loop.failed == 0 && seg.counters["requests"] != want {
		return fmt.Errorf("served_point: %v requests sent, server counted %v", want, seg.counters["requests"])
	}
	return nil
}

func routedLayer(m map[string]float64, seg *segment, tree *spanTree, triangleReproMs float64) {
	var self, legMax, gap []time.Duration
	var work []float64
	for _, s := range tree.named("router.count", "triangle") {
		legs := durations(tree.descendants(s, "host.count"))
		if len(legs) == 0 {
			continue
		}
		hi, lo := quantile(legs, 1), quantile(legs, 0)
		self = append(self, s.dur()-hi)
		legMax = append(legMax, hi)
		gap = append(gap, hi-lo)
		var shards time.Duration
		for _, d := range durations(tree.descendants(s, "store.count")) {
			shards += d
		}
		work = append(work, ms(shards))
	}
	m["router.count_self_ms"] = ms(medianDur(self))
	m["router.leg_max_ms"] = ms(medianDur(legMax))
	m["router.straggler_gap_ms"] = ms(medianDur(gap))
	m["router.work_amplification"] = ratio(median(work), triangleReproMs)
	var merged int64
	var merging time.Duration
	for _, s := range tree.named("router.rows", "range2hop") {
		merged += s.Rows
		merging += s.dur()
	}
	m["router.merge_rows_per_s"] = ratio(float64(merged), merging.Seconds())
	points := tree.named("router.count", "point")
	single := 0
	for _, s := range points {
		if len(tree.descendants(s, "host.count")) == 1 {
			single++
		}
	}
	m["router.pinned_single_host_ratio"] = ratio(float64(single), float64(len(points)))
	m["router.retries"] = seg.counters["router_retries"]
}

func durableLayer(m map[string]float64, seg *segment, tree *spanTree) {
	applies := durations(tree.named("client.apply", "edge"))
	m["durable.apply_p50_ms"] = ms(quantile(applies, 0.50))
	m["durable.apply_p99_ms"] = ms(quantile(applies, 0.99))
	m["durable.apply_stall_max_ms"] = ms(quantile(applies, 1))
	m["durable.read_p50_us"] = us(medianOf(tree.named("client.count", "churn_read")))
	c := seg.counters
	m["durable.fsyncs_per_apply"] = ratio(c["fsyncs"], float64(len(applies)))
	m["durable.fsync_mean_us"] = ratio(c["fsync_s"]*1e6, c["fsyncs"])
	m["durable.checkpoints"] = c["checkpoints"]
	m["durable.checkpoint_mean_ms"] = ratio(c["checkpoint_s"]*1e3, c["checkpoints"])
	m["durable.overlay_depth_max"] = c["overlay_depth_max"]
	m["durable.recovery_s"] = seg.recovery.Seconds()
}
