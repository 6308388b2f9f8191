package main

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// spanGroups maps the benchmark's span names onto the span.* metrics.
var spanGroups = map[string]string{
	"asdb.Build":            "span.dataset_build_s",
	"tpch.Build":            "span.dataset_build_s",
	"htap.Build":            "span.dataset_build_s",
	"engine.NewServer":      "span.server_boot_s",
	"engine.AttachDB":       "span.server_boot_s",
	"repl.New":              "span.server_boot_s",
	"serve.New":             "span.server_boot_s",
	"openloop.Build":        "span.server_boot_s",
	"engine.WarmBufferPool": "span.buffer_warm_s",
	"sim.Run/warmup":        "span.warmup_s",
	"sim.Run/measure":       "span.measure_s",
	"sim.Run/grace":         "span.drain_s",
	"sim.Run/quiesce":       "span.drain_s",
	"sim.Run/drain":         "span.drain_s",
	"repl.Shutdown":         "span.drain_s",
	"repl.CheckDigests":     "span.collect_s",
	"collect":               "span.collect_s",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// telTotal returns a registry series' end-of-run value (0 if absent).
func telTotal(s *telemetry.Snapshot, subsystem, name string) float64 {
	if s == nil {
		return 0
	}
	for _, sd := range s.Series {
		if sd.Subsystem == subsystem && sd.Name == name {
			return sd.Total
		}
	}
	return 0
}

// layerOf derives one traced repetition's per-layer numbers. plainRunS
// is the untraced run-phase median, the base for the tracing overhead
// and for host ns per event.
func layerOf(r rep, plainRunS float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerSpec))
	var run, measure span
	for _, s := range r.Spans {
		switch s.Name {
		case "run":
			run = s
		case "sim.Run/measure":
			measure = s
		}
		if g, ok := spanGroups[s.Name]; ok {
			m[g] += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	m["trace.overhead_share"] = ratio(r.RunS, plainRunS) - 1

	sr, d := r.Sim, r.Sim.Delta
	ops := float64(sr.Ops)
	runNs := float64(run.EndNs - run.StartNs)
	share := func(phase string) float64 { return ratio(float64(run.Prof[phase][0]), runNs) }

	events := float64(measure.Prof["sim.proc"][1])
	m["sim.events_per_op"] = ratio(events, ops)
	m["sim.events_per_sim_s"] = ratio(events, sr.WindowS)
	m["sim.host_ns_per_event"] = ratio(plainRunS*1e9, float64(run.Prof["sim.proc"][1]))
	m["sim.loop_host_share"] = share("sim.loop")
	// sim.proc covers everything a proc does, the model phases included.
	m["sim.proc_host_share"] = share("sim.proc") - share("hw.exec") - share("hw.charge") - share("cache.llc")
	m["sim.live_procs_at_end"] = float64(sr.Live)
	m["sim.p99_ms"] = sr.P99Ms

	m["hw.exec_calls_per_op"] = ratio(float64(measure.Prof["hw.exec"][1]), ops)
	m["hw.exec_host_share"] = share("hw.exec")
	m["hw.charge_host_share"] = share("hw.charge")
	m["hw.ipc"] = ratio(float64(d.Instructions), float64(d.Cycles))
	m["hw.dram_mb_per_sim_s"] = ratio(float64(d.DRAMReadBytes+d.DRAMWriteBytes)/1e6, sr.WindowS)

	m["cache.llc_calls_per_op"] = ratio(float64(measure.Prof["cache.llc"][1]), ops)
	m["cache.llc_accesses_per_op"] = ratio(float64(d.LLCAccesses), ops)
	m["cache.llc_host_share"] = share("cache.llc")
	m["cache.llc_host_ns_per_call"] = ratio(float64(run.Prof["cache.llc"][0]), float64(run.Prof["cache.llc"][1]))
	m["cache.llc_mpki"] = d.MPKI()

	m["buffer.hit_ratio"] = ratio(float64(d.BufferHits), float64(d.BufferHits+d.BufferMisses))
	m["buffer.misses_per_op"] = ratio(float64(d.BufferMisses), ops)
	m["iodev.read_mb_per_sim_s"] = ratio(float64(d.SSDReadBytes)/1e6, sr.WindowS)
	m["iodev.write_mb_per_sim_s"] = ratio(float64(d.SSDWriteBytes)/1e6, sr.WindowS)
	m["iodev.read_ops_per_op"] = ratio(float64(d.SSDReadOps), ops)
	m["iodev.write_ops_per_op"] = ratio(float64(d.SSDWriteOps), ops)

	var waits float64
	for _, ns := range d.WaitNs {
		waits += float64(ns)
	}
	wait := func(c metrics.WaitClass) float64 { return ratio(float64(d.WaitNs[c]), waits) }
	m["iodev.pageio_wait_share"] = wait(metrics.WaitPageIOLatch)
	m["lock.wait_share"] = wait(metrics.WaitLock)
	m["lock.latch_wait_share"] = wait(metrics.WaitLatch)
	m["lock.pagelatch_wait_share"] = wait(metrics.WaitPageLatch)
	m["exec.grant_wait_share"] = wait(metrics.WaitResourceSem)
	m["exec.cpu_wait_share"] = wait(metrics.WaitCPU)
	m["txn.abort_share"] = ratio(float64(d.TxnAborts), float64(d.TxnCommits+d.TxnAborts))
	m["txn.retries_per_op"] = ratio(float64(d.TxnRetries), ops)

	commits := float64(d.TxnCommits)
	// The registry's WAL series are whole-run totals, so they divide by
	// whole-run commits.
	m["wal.write_kb_per_commit"] = ratio(telTotal(sr.Tel, "wal", "flush_bytes")/1024, telTotal(sr.Tel, "txn", "commits"))
	m["wal.writelog_wait_ms_per_commit"] = ratio(float64(d.WaitNs[metrics.WaitWriteLog])/1e6, commits)
	m["wal.flush_ms"] = telTotal(sr.Tel, "wal", "flush_latency") / 1e6

	m["exec.queries_done"] = float64(d.QueriesDone)
	m["exec.spills"] = float64(d.Spills)
	m["exec.degraded_plans"] = float64(d.DegradedPlans)
	m["exec.deadline_kills"] = float64(d.DeadlineKills)

	l := sr.Layer
	m["repl.ack_wait_ms_per_commit"] = ratio(float64(d.WaitNs[metrics.WaitReplAck])/1e6, commits)
	m["repl.shipped_kb_per_commit"] = ratio(l["repl.shipped_bytes"]/1024, l["repl.total_commits"])
	m["repl.applied_txns_per_commit"] = ratio(l["repl.applied_txns"], l["repl.total_commits"])
	m["serve.shed_share"] = ratio(l["serve.shed"], l["client.sent"])
	// Counts that are per-layer metrics as they stand keep their names;
	// the rest of l is ignored by the caller.
	for k, v := range l {
		m[k] = v
	}
	return m
}

// hostMetrics are the Go runtime's numbers, taken from the untraced
// repetitions so that tracing does not colour them.
var hostMetrics = map[string]func(rep) float64{
	"host.cpu_s_per_wall_s": func(r rep) float64 { return ratio(r.Host.CPUS, r.RunS) },
	"host.gc_cpu_share":     func(r rep) float64 { return ratio(r.Host.GCCPUS, r.Host.CPUS) },
	"host.gc_cycles":        func(r rep) float64 { return float64(r.Host.GCCycles) },
	"host.peak_rss_mb":      func(rep) float64 { return peakRSSMB() },
	// What host_wall_us_per_op was before it was brought to reference
	// speed, and the slowdown it was divided by.
	"host.raw_wall_us_per_op": func(r rep) float64 { return ratio(r.RunS*1e6, float64(r.Sim.Ops)) },
	"host.ref_slowdown":       func(r rep) float64 { return r.RunSlow },
}

// perLayer assembles the traced pass's metrics: span, sim, model and
// engine numbers as medians over the traced repetitions, the runtime's
// numbers from the untraced ones, and the micro-probes.
func perLayer(plain, traced []rep, probeNs map[string]float64) map[string]stat {
	plainRunS := median(column(plain, func(r rep) float64 { return r.RunS }))
	per := make([]map[string]float64, len(traced))
	for i, r := range traced {
		per[i] = layerOf(r, plainRunS)
	}
	out := make(map[string]stat, len(perLayerSpec))
	for _, s := range perLayerSpec {
		switch {
		case strings.HasPrefix(s.Name, "probe."):
			out[s.Name] = summarise(s.Unit, []float64{probeNs[s.Name]})
		case hostMetrics[s.Name] != nil:
			out[s.Name] = summarise(s.Unit, column(plain, hostMetrics[s.Name]))
		default:
			xs := make([]float64, len(per))
			for i := range per {
				xs[i] = per[i][s.Name]
			}
			out[s.Name] = summarise(s.Unit, xs)
		}
	}
	return out
}
