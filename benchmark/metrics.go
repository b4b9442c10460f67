package main

// metricDef names one reported metric. BENCHMARK.json carries name, unit,
// better and (end-to-end only) bound; layer and moves are the attribution a
// reader needs and are printed by the benchmark and tabulated in README.md.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end: relative worsening of the median that is a regression
	layer  string  // per-layer: the module whose work it measures
	moves  string  // per-layer: the end-to-end metric and workload it should move
}

// Workload letters used in moves: E embedded_joins, S served_point,
// R routed_fanout, D durable_churn.

// endToEnd is reported for every workload on an untraced pass.
//
// The timing bounds are the widest the benchmark's contract allows. On the
// shared 2-core VM this was written on, ten runs of one commit spread (first
// to third quartile, over the median) by 4–18 % in an ordinary hour and by
// 12–45 % while a neighbour was busy (README.md has the series), so a
// tighter timing bound would reject the parent commit against itself. The
// three counted metrics repeat to a fraction of a percent and carry the
// tight bounds; a timing claim needs the paired protocol of README.md.
//
// failed_share is not in the list: the result line's own attempted and
// failed fields carry it, and a metric that is always 0 has no relative
// spread to bound. It is reported with the per-layer set as
// load.failed_share.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.03},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.05},
}

// perLayer is reported on a traced pass. A metric of a layer the workload
// does not exercise reads 0 there: that layer did no work.
var perLayer = []metricDef{
	// ladder: the same query on the same data at every rung, one client.
	{"ladder.triangle.engine_ms", "ms", "lower", 0, "ladder", "op_p50_ms@E"},
	{"ladder.triangle.repro_ms", "ms", "lower", 0, "ladder", "op_p50_ms@E"},
	{"ladder.triangle.wire_ms", "ms", "lower", 0, "ladder", "op_p50_ms@S"},
	{"ladder.triangle.router_ms", "ms", "lower", 0, "ladder", "op_p50_ms@R"},
	{"ladder.point.engine_us", "us", "lower", 0, "ladder", "op_p50_ms@E"},
	{"ladder.point.repro_us", "us", "lower", 0, "ladder", "op_p50_ms@S"},
	{"ladder.point.wire_us", "us", "lower", 0, "ladder", "op_p50_ms@S"},
	{"ladder.point.router_us", "us", "lower", 0, "ladder", "op_p50_ms@R"},
	{"ladder.apply.memory_us", "us", "lower", 0, "ladder", "op_p50_ms@D"},
	{"ladder.apply.durable_us", "us", "lower", 0, "ladder", "op_p50_ms@D"},
	{"ladder.apply.wire_us", "us", "lower", 0, "ladder", "op_p50_ms@D"},

	{"relation.build_ms", "ms", "lower", 0, "relation", "setup_s@all"},
	{"relation.scan_ns_per_tuple", "ns", "lower", 0, "relation", "cpu_ms_per_op@E"},
	{"relation.seek_ns", "ns", "lower", 0, "relation", "cpu_ms_per_op@E"},
	{"relation.probegap_ns", "ns", "lower", 0, "relation", "repro.q.path3_ms -> op_p50_ms@E"},
	{"relation.overlay_apply_us", "us", "lower", 0, "relation", "op_p50_ms@D"},
	{"relation.overlay_scan_penalty", "ratio", "lower", 0, "relation", "op_p50_ms@D"},

	{"lftj.seeks_per_result.triangle", "count", "lower", 0, "lftj", "op_p50_ms,cpu_ms_per_op@E; none@S"},
	{"lftj.seeks_per_result.clique4", "count", "lower", 0, "lftj", "op_p50_ms,cpu_ms_per_op@E; none@S"},
	{"lftj.ns_per_seek.triangle", "ns", "lower", 0, "lftj", "op_p50_ms,cpu_ms_per_op@E; none@S"},
	{"lftj.seeks.pinned_projected", "count", "lower", 0, "lftj", "op_p50_ms,cpu_ms_per_op@E; none@S"},

	{"minesweeper.probes_per_result.path3", "count", "lower", 0, "minesweeper", "op_p50_ms@E"},
	{"minesweeper.probe_memo_hit_ratio.path3", "ratio", "higher", 0, "minesweeper", "op_p50_ms@E"},
	{"minesweeper.constraints_per_result.path3", "count", "lower", 0, "minesweeper", "op_p50_ms,alloc_kb_per_op@E"},
	{"minesweeper.ns_per_probe.path3", "ns", "lower", 0, "minesweeper", "op_p50_ms@E"},
	{"minesweeper.allocs_per_exec.path3", "count", "lower", 0, "minesweeper", "allocs_per_op,alloc_kb_per_op@E"},

	// repro.q.*: span medians inside one embedded_joins operation; they sum
	// to that workload's op_p50_ms.
	{"repro.q.triangle_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.q.clique4_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.q.path3_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.q.comb2_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.q.groupby_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.q.pinned_projected_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.q.range2hop_ms", "ms", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.exec_allocs.point", "count", "lower", 0, "repro", "allocs_per_op@S"},
	{"repro.rows_ns_per_row.triangle", "ns", "lower", 0, "repro", "op_p50_ms@E"},
	{"repro.prepare_hit_us", "us", "lower", 0, "repro", "op_p50_ms@S (one-shot leg); setup_s"},
	{"repro.prepare_miss_us", "us", "lower", 0, "repro", "setup_s"},
	{"query.parse_us", "us", "lower", 0, "query", "setup_s"},
	{"core.plan_cache_hit_ratio", "ratio", "higher", 0, "core", "op_p50_ms@S (one-shot leg)"},

	{"wire.count_frame_roundtrip_ns", "ns", "lower", 0, "wire", "cpu_ms_per_op@S"},
	{"wire.rows_chunk_ns_per_row", "ns", "lower", 0, "wire", "op_p50_ms@R (row leg)"},
	{"wire.allocs_per_roundtrip", "count", "lower", 0, "wire", "allocs_per_op@S"},

	{"client.count_rtt_us", "us", "lower", 0, "client", "op_p50_ms,ops_per_s@S"},
	{"client.rows_rtt_us", "us", "lower", 0, "client", "op_p50_ms,ops_per_s@S"},
	{"client.oneshot_rtt_us", "us", "lower", 0, "client", "op_p50_ms,ops_per_s@S"},
	{"client.rows_first_row_us", "us", "lower", 0, "client", "op_p50_ms@S"},
	{"client.stream_rows_per_s", "1/s", "higher", 0, "client", "op_p50_ms@R"},
	{"server.store_us", "us", "lower", 0, "server", "none@S (engine share)"},
	{"server.transport_self_us", "us", "lower", 0, "server", "op_p50_ms,ops_per_s@S"},
	{"server.transport_share", "ratio", "lower", 0, "server", "op_p50_ms@S"},
	{"server.requests_per_op", "count", "lower", 0, "server", "op_p50_ms,ops_per_s@S"},
	{"server.credit_stall_share", "ratio", "lower", 0, "server", "op_p50_ms@R"},

	{"router.count_self_ms", "ms", "lower", 0, "router", "op_p50_ms,cpu_ms_per_op@R"},
	{"router.leg_max_ms", "ms", "lower", 0, "router", "op_p50_ms@R"},
	{"router.straggler_gap_ms", "ms", "lower", 0, "router", "op_p50_ms@R"},
	{"router.work_amplification", "ratio", "lower", 0, "router", "cpu_ms_per_op@R"},
	{"router.merge_rows_per_s", "1/s", "higher", 0, "router", "op_p50_ms@R"},
	{"router.pinned_single_host_ratio", "ratio", "higher", 0, "router", "op_p50_ms@R"},
	{"router.retries", "count", "lower", 0, "router", "op_p50_ms@R"},

	{"durable.apply_p50_ms", "ms", "lower", 0, "durable", "op_p50_ms,ops_per_s@D"},
	{"durable.apply_p99_ms", "ms", "lower", 0, "durable", "load.op_p99_ms@D"},
	{"durable.apply_stall_max_ms", "ms", "lower", 0, "durable", "load.op_max_ms@D"},
	{"durable.read_p50_us", "us", "lower", 0, "durable", "op_p50_ms@D"},
	{"durable.wal_overhead_us", "us", "lower", 0, "durable", "op_p50_ms@D"},
	{"durable.fsyncs_per_apply", "ratio", "lower", 0, "durable", "op_p50_ms,ops_per_s@D"},
	{"durable.fsync_mean_us", "us", "lower", 0, "durable", "op_p50_ms@D"},
	{"durable.wal_bytes_per_user_byte", "ratio", "lower", 0, "durable", "op_p50_ms@D"},
	{"durable.checkpoints", "count", "lower", 0, "durable", "load.op_p99_ms@D"},
	{"durable.checkpoint_mean_ms", "ms", "lower", 0, "durable", "load.op_p99_ms@D"},
	{"durable.overlay_depth_max", "count", "lower", 0, "durable", "load.op_p99_ms@D"},
	{"durable.recovery_s", "s", "lower", 0, "durable", "setup_s@D"},

	// Diagnostics of the untraced pass, and the cost of tracing itself.
	{"load.ops", "count", "higher", 0, "load", "ops_per_s"},
	{"load.wall_ops_per_s", "1/s", "higher", 0, "load", "ops_per_s with the slowest 5 % of operations counted"},
	{"load.failed_share", "ratio", "lower", 0, "load", "any increase is a failure"},
	{"load.op_p90_ms", "ms", "lower", 0, "load", "tail of op_p50_ms"},
	{"load.op_p99_ms", "ms", "lower", 0, "load", "tail of op_p50_ms"},
	{"load.op_max_ms", "ms", "lower", 0, "load", "tail of op_p50_ms"},
	{"load.segment_spread", "ratio", "lower", 0, "load", "the benchmark's own noise"},
	{"runtime.gc_cpu_share", "ratio", "lower", 0, "runtime", "cpu_ms_per_op where alloc_kb_per_op is high (E, R)"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0, "runtime", "op_p50_ms where alloc_kb_per_op is high (E, R)"},
	{"trace.overhead_share", "ratio", "lower", 0, "trace", "op_p50_ms with tracing on"},
}
