package main

// metricDecl declares one metric. BENCHMARK.json at the root of the repo
// repeats name, unit, better and bound; decl_test.go keeps the two equal.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	Exact  bool    // per-layer only: a count that must repeat bit for bit
}

const workers = 2 // W: runnable threads, ranks and client connections

var workloadNames = []string{"sedov45", "multimat20", "dist2slab", "serveburst"}

// endToEnd is what a user of the stack sees. Every workload reports every
// one of them; README.md says what "primary", "omp" and "serial" mean on
// each workload.
var endToEnd = []metricDecl{
	{Name: "grind_us_zc", Unit: "us/zone/cycle", Better: "lower", Bound: 0.08},
	{Name: "omp_grind_us_zc", Unit: "us/zone/cycle", Better: "lower", Bound: 0.15},
	{Name: "serial_grind_us_zc", Unit: "us/zone/cycle", Better: "lower", Bound: 0.08},
	{Name: "step_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer is measured in the traced run only, from outside each layer.
var perLayer = []metricDecl{
	{Name: "domain.build_ms", Unit: "ms", Better: "lower"},
	{Name: "domain.bytes_per_zone", Unit: "B/zone", Better: "lower", Exact: true},
	{Name: "kernels.step_ns_zc", Unit: "ns/zone/cycle", Better: "lower"},
	{Name: "kernels.state_bytes_zone", Unit: "B/zone", Better: "lower", Exact: true},
	{Name: "kernels.min_traffic_frac", Unit: "ratio", Better: "higher"},
	{Name: "machine.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "amt.dispatch_ns_zc", Unit: "ns/zone/cycle", Better: "lower"},
	{Name: "amt.parallel_loss_ns_zc", Unit: "ns/zone/cycle", Better: "lower"},
	{Name: "amt.utilization", Unit: "ratio", Better: "higher"},
	{Name: "amt.ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "amt.chain_ns_per_link", Unit: "ns", Better: "lower"},
	{Name: "amt.metg50_us", Unit: "us", Better: "lower"},
	{Name: "omp.forkjoin_ns_zc", Unit: "ns/zone/cycle", Better: "lower"},
	{Name: "omp.parallel_loss_ns_zc", Unit: "ns/zone/cycle", Better: "lower"},
	{Name: "omp.utilization", Unit: "ratio", Better: "higher"},
	{Name: "omp.ns_per_region", Unit: "ns", Better: "lower"},
	{Name: "omp.metg50_us", Unit: "us", Better: "lower"},
	{Name: "core.task_speedup_vs_omp", Unit: "ratio", Better: "higher"},
	{Name: "core.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.cycles", Unit: "count", Better: "higher", Exact: true},
	{Name: "comm.msgs_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "comm.bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "comm.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.wait_ghost_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.wait_reduce_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "dist.rank_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.save_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.load_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.bytes_per_zone", Unit: "B/zone", Better: "lower", Exact: true},
	{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.job_latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.result_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_429", Unit: "count", Better: "lower"},
	{Name: "serve.pool_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.span_coverage", Unit: "ratio", Better: "higher"},
}

// metrics collects the values of one run by declared name.
type metrics map[string]float64
