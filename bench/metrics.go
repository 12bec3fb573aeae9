package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"iter_p50_ms", "ms"},
	{"iter_p75_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// valueMetrics are per-iteration values read from a workload's outputs
// rather than timed: work counts and the plan's footprint. A workload
// that has no such layer reports 0 in the per-layer summary.
var valueMetrics = []metricDef{
	{"census.block_decodes", "count"},
	{"census.resident_blocks", "count"},
	{"census.cache_hit_rate", "share"},
	{"core.space_share", "share"},
	{"scan.probes", "count"},
	{"scan.probe_rate_mps", "M/s"},
	{"scan.traffic_share", "share"},
	{"scan.hosts_missed", "share"},
	{"coord.rpcs", "count"},
	{"coord.rpc_failed", "count"},
	{"coord.saves", "count"},
	{"coord.state_kb", "KB"},
}

// opMetrics are latency quantiles, in wall ms, of the operations the
// fleet times one by one (result.ops), pooled over the untraced loop.
var opMetrics = []struct {
	name, op string
	q        float64
}{
	{"coord.rpc_p50_ms", "coord.rpc", 0.5},
	{"coord.rpc_p99_ms", "coord.rpc", 0.99},
	{"coord.acquire_p50_ms", "coord.acquire", 0.5},
	{"coord.heartbeat_p50_ms", "coord.heartbeat", 0.5},
	{"coord.complete_p50_ms", "coord.complete", 0.5},
	{"coord.complete_max_ms", "coord.complete", 1},
	{"coord.save_p50_ms", "coord.save", 0.5},
}

// layerSpans lists the span names the workloads record around calls into
// the system's layers. Each becomes the per-layer metric <name>_ms: the
// median over traced iterations of the span's summed self time, in wall
// ms.
func layerSpans() []string {
	names := []string{
		"census.open", "census.read_delta", "census.snapshot", "census.diff",
		"core.rank", "core.apply", "core.select",
		"rib.origins",
		"scan.new", "scan.run",
		"coord.worker", "coord.acquire", "coord.heartbeat", "coord.complete",
		"coord.admin", "coord.save", "coord.idle",
	}
	for _, id := range paperIDs() {
		names = append(names, "experiment."+id)
	}
	return names
}

// perLayer lists every per-layer metric a traced run reports, in print
// order.
func perLayer() []metricDef {
	var out []metricDef
	for _, name := range layerSpans() {
		out = append(out, metricDef{name + "_ms", "ms"})
	}
	out = append(out, valueMetrics...)
	for _, m := range opMetrics {
		out = append(out, metricDef{m.name, "ms"})
	}
	out = append(out, metricDef{"runtime.alloc_mb", "MB"}, metricDef{"runtime.gc_cycles", "count"})
	for _, p := range setupPhases {
		out = append(out, metricDef{"setup." + p + "_s", "s"})
	}
	return append(out,
		metricDef{"bench.glue_share", "share"},
		metricDef{"bench.trace_overhead", "share"})
}
