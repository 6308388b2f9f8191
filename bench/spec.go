package main

// metricSpec names one metric the benchmark emits.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline median it may worsen by
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 24

// benchmarkFile is BENCHMARK.json at the repository root: `bench -spec`
// prints it from the tables in this package and
// TestSpecMatchesBenchmarkJSON keeps the committed file equal to them.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpec,
		PerLayer:   perLayerSpec,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadSpec{w.Name, w.Why})
	}
	return f
}

// endToEndSpec is what a user of the system sees: what it costs the host
// to regenerate a number (host_*, setup_s) and what the simulated system
// delivered (sim_*, ok_op_share). Host metrics are medians over the
// repetitions of a run; sim and allocation metrics are a function of the
// seed alone, so their bounds cover seed-to-seed spread, not noise: each
// is at least three times the widest spread measured over ten seeds
// (README.md, Noise). The two host-time metrics take the contract's
// largest bound because the reference host's own speed drifts.
var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_wall_us_per_op", "us/op", "lower", 0.25},
	{"host_allocs_per_op", "count/op", "lower", 0.08},
	{"host_alloc_kb_per_op", "KB/op", "lower", 0.12},
	{"sim_ops_per_s", "1/s", "higher", 0.15},
	{"sim_p50_ms", "ms", "lower", 0.15},
	{"sim_p95_ms", "ms", "lower", 0.12},
	{"ok_op_share", "ratio", "higher", 0.06},
}

// perLayerSpec is the traced pass: one slice per layer of the
// client -> net -> serve -> engine -> WAL -> repl stack and of the
// simulator underneath it. A layer that is not on a workload's path
// reports 0.
var perLayerSpec = withProbes([]metricSpec{
	// Benchmark-side spans around the calls into each layer.
	{Name: "span.dataset_build_s", Unit: "s", Better: "lower"},
	{Name: "span.server_boot_s", Unit: "s", Better: "lower"},
	{Name: "span.buffer_warm_s", Unit: "s", Better: "lower"},
	{Name: "span.warmup_s", Unit: "s", Better: "lower"},
	{Name: "span.measure_s", Unit: "s", Better: "lower"},
	{Name: "span.drain_s", Unit: "s", Better: "lower"},
	{Name: "span.collect_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},

	// The Go runtime under the untraced run phase.
	{Name: "host.cpu_s_per_wall_s", Unit: "ratio", Better: "lower"},
	{Name: "host.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.raw_wall_us_per_op", Unit: "us/op", Better: "lower"},
	{Name: "host.ref_slowdown", Unit: "ratio", Better: "lower"},

	// Simulation kernel (sim.EnableProfiling's loop/proc phases).
	{Name: "sim.events_per_op", Unit: "count/op", Better: "lower"},
	{Name: "sim.events_per_sim_s", Unit: "1/s", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.loop_host_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.proc_host_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.live_procs_at_end", Unit: "count", Better: "lower"},
	{Name: "sim.p99_ms", Unit: "ms", Better: "lower"},

	// Hardware model.
	{Name: "hw.exec_calls_per_op", Unit: "count/op", Better: "lower"},
	{Name: "hw.exec_host_share", Unit: "ratio", Better: "lower"},
	{Name: "hw.charge_host_share", Unit: "ratio", Better: "lower"},
	{Name: "hw.ipc", Unit: "ratio", Better: "higher"},
	{Name: "hw.dram_mb_per_sim_s", Unit: "MB/s", Better: "lower"},

	// LLC model.
	{Name: "cache.llc_calls_per_op", Unit: "count/op", Better: "lower"},
	{Name: "cache.llc_accesses_per_op", Unit: "count/op", Better: "lower"},
	{Name: "cache.llc_host_share", Unit: "ratio", Better: "lower"},
	{Name: "cache.llc_host_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "cache.llc_mpki", Unit: "count", Better: "lower"},

	// Buffer pool and device.
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.misses_per_op", Unit: "count/op", Better: "lower"},
	{Name: "iodev.read_mb_per_sim_s", Unit: "MB/s", Better: "lower"},
	{Name: "iodev.write_mb_per_sim_s", Unit: "MB/s", Better: "lower"},
	{Name: "iodev.read_ops_per_op", Unit: "count/op", Better: "lower"},
	{Name: "iodev.write_ops_per_op", Unit: "count/op", Better: "lower"},
	{Name: "iodev.pageio_wait_share", Unit: "ratio", Better: "lower"},

	// Locks and transactions. A wait share is that class's part of all
	// simulated wait time in the measure window.
	{Name: "lock.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "lock.latch_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "lock.pagelatch_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "txn.abort_share", Unit: "ratio", Better: "lower"},
	{Name: "txn.retries_per_op", Unit: "count/op", Better: "lower"},

	// WAL.
	{Name: "wal.write_kb_per_commit", Unit: "KB", Better: "lower"},
	{Name: "wal.writelog_wait_ms_per_commit", Unit: "ms", Better: "lower"},
	{Name: "wal.flush_ms", Unit: "ms", Better: "lower"},

	// Executor and optimizer.
	{Name: "exec.queries_done", Unit: "count", Better: "higher"},
	{Name: "exec.spills", Unit: "count", Better: "lower"},
	{Name: "exec.degraded_plans", Unit: "count", Better: "lower"},
	{Name: "exec.deadline_kills", Unit: "count", Better: "lower"},
	{Name: "exec.grant_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "exec.cpu_wait_share", Unit: "ratio", Better: "lower"},

	// Replication.
	{Name: "repl.ack_wait_ms_per_commit", Unit: "ms", Better: "lower"},
	{Name: "repl.shipped_kb_per_commit", Unit: "KB", Better: "lower"},
	{Name: "repl.applied_txns_per_commit", Unit: "ratio", Better: "higher"},
	{Name: "repl.max_lag_kb", Unit: "KB", Better: "lower"},
	{Name: "repl.unacked_commits", Unit: "count", Better: "lower"},

	// Serving front end and its clients.
	{Name: "serve.accepted_conns", Unit: "count", Better: "higher"},
	{Name: "serve.served", Unit: "count", Better: "higher"},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.degraded_queries", Unit: "count", Better: "lower"},
	{Name: "client.refused_dials", Unit: "count", Better: "lower"},
	{Name: "client.dropped_reqs", Unit: "count", Better: "lower"},
	{Name: "client.offered_rps", Unit: "1/s", Better: "higher"},
})

// withProbes appends the two metrics every micro-probe reports.
func withProbes(specs []metricSpec) []metricSpec {
	for _, p := range probes {
		specs = append(specs,
			metricSpec{Name: "probe." + p.Name + "_ns", Unit: "ns", Better: "lower"},
			metricSpec{Name: "probe." + p.Name + "_allocs", Unit: "count", Better: "lower"})
	}
	return specs
}
