package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestGateDirections pins, for every metric the gate compares in the
// newest committed snapshot, which way is worse. A metric gated in the
// wrong direction passes a halving and fails an improvement.
func TestGateDirections(t *testing.T) {
	want := []struct {
		bench, metric string
		higher        bool
	}{
		{"AblationCompression", "row_over_columnstore_bytes", false},
		{"AblationMetadata", "asdb_llc_sensitivity_with_meta", false},
		{"AblationSMT", "ht_detriment_16c_over_32c", false},
		{"Chaos", "acked_commit_survival", true},
		{"Chaos", "client_retries", false},
		{"Chaos", "time_to_goodput_sim_ms", false},
		{"ExecEngines/row", "sim_ms", false},
		{"ExecEngines/vec", "sim_ms", false},
		{"Failover", "pitr_sim_ms", false},
		{"Failover", "rto_sim_ms", false},
		{"Fig2Cores/asdb", "sf2000_16c_over_32c", false},
		{"Fig2Cores/asdb", "sf2000_speedup_2to16c", true},
		{"Fig2Cores/asdb", "sf6000_16c_over_32c", false},
		{"Fig2Cores/asdb", "sf6000_speedup_2to16c", true},
		{"Fig2Cores/htap", "sf15000_16c_over_32c", false},
		{"Fig2Cores/htap", "sf15000_speedup_2to16c", true},
		{"Fig2Cores/htap", "sf5000_16c_over_32c", false},
		{"Fig2Cores/htap", "sf5000_speedup_2to16c", true},
		{"Fig2Cores/tpce", "sf15000_16c_over_32c", false},
		{"Fig2Cores/tpce", "sf15000_speedup_2to16c", true},
		{"Fig2Cores/tpce", "sf5000_16c_over_32c", false},
		{"Fig2Cores/tpce", "sf5000_speedup_2to16c", true},
		{"Fig2Cores/tpch", "sf10_16c_over_32c", false},
		{"Fig2Cores/tpch", "sf10_speedup_2to16c", true},
		{"Fig2Cores/tpch", "sf300_16c_over_32c", false},
		{"Fig2LLC/asdb", "sf6000_mpki_ratio", false},
		{"Fig2LLC/asdb", "sf6000_speedup_2to40MB", true},
		{"Fig2LLC/htap", "sf15000_mpki_ratio", false},
		{"Fig2LLC/htap", "sf15000_speedup_2to40MB", true},
		{"Fig2LLC/tpce", "sf15000_mpki_ratio", false},
		{"Fig2LLC/tpce", "sf15000_speedup_2to40MB", true},
		{"Fig2LLC/tpch", "sf100_mpki_ratio", false},
		{"Fig2LLC/tpch", "sf100_speedup_2to40MB", true},
		{"Fig3", "tpch_dram_MBps_at_32c", false},
		{"Fig3", "tpch_ssdread_MBps_at_32c", false},
		{"Fig4", "asdb6000_ssdwrite_p90_MBps", false},
		{"Fig4", "tpch300_dram_p90_MBps", false},
		{"Fig4", "tpch300_ssdread_p90_MBps", false},
		{"Fig5", "linear_overprovision_x", true},
		{"Fig5Write", "tps_frac_at_100MBps", true},
		{"Fig5Write", "tps_frac_at_50MBps", true},
		{"Fig6/sf10", "q20_speedup_dop32_vs_1", true},
		{"Fig6/sf10", "queries_gaining_2x", true},
		{"Fig6/sf300", "q20_speedup_dop32_vs_1", true},
		{"Fig6/sf300", "queries_gaining_2x", true},
		{"Fig8", "q18_speedup_at_2pct", true},
		{"Fig8", "queries_hurt_at_2pct", false},
		{"Replication", "commit_quorum_sim_ms", false},
		{"Replication", "commit_sync_sim_ms", false},
		{"Serving", "goodput_rps", true},
		{"Serving", "p99_sim_ms", false},
		{"Serving", "shed_rate", false},
		{"Table3", "LATCH_ratio", false},
		{"Table3", "LOCK_ratio", false},
		{"Table3", "PAGEIOLATCH_ratio", false},
		{"Table3", "PAGELATCH_ratio", false},
		{"Table3", "sum_ratio", false},
		{"VectorizedSpeedup", "alloc_reduction_x", true},
	}
	listed := map[[2]string]bool{}
	for _, w := range want {
		listed[[2]string{w.bench, w.metric}] = true
		if !gated(w.metric, false) {
			t.Errorf("%s %s: not gated", w.bench, w.metric)
		}
		if got := higherBetter(w.metric); got != w.higher {
			t.Errorf("%s %s: higherBetter = %v, want %v", w.bench, w.metric, got, w.higher)
		}
	}

	// The table is every gated metric of the snapshot CI compares against,
	// no more and no fewer; what it leaves out is wall-clock.
	b, err := os.ReadFile("../../BENCH_01a440f.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	n := 0
	for bench, metrics := range snap.Benchmarks {
		for m := range metrics {
			if !gated(m, false) {
				continue
			}
			n++
			if !listed[[2]string{bench, m}] {
				t.Errorf("%s %s is gated but has no direction in this table", bench, m)
			}
		}
	}
	if n != len(want) {
		t.Errorf("snapshot gates %d metrics, table lists %d", n, len(want))
	}
	for _, m := range []string{"ns/op", "B/op", "allocs/op", "vec_speedup_wall", "sim_proc_wall_ms_per_sim_s"} {
		if gated(m, false) {
			t.Errorf("%s is machine-dependent and must not be gated by default", m)
		}
	}
}
