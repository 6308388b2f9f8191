package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/workload/tpch"
)

// tinySizes are the harness.TestOptions-scale sizes the tests run the
// five cells at: the same code the benchmark times, small enough for
// `go test ./...`.
func tinySizes(t *testing.T, name string) (sizes, harness.Options) {
	t.Helper()
	opt := harness.TestOptions()
	opt.Warmup = 100 * sim.Millisecond
	opt.Measure = 300 * sim.Millisecond
	sz := sizes{Clients: opt.Users, Warmup: opt.Warmup, Measure: opt.Measure}
	switch name {
	case "asdb_oltp", "repl_quorum":
		sz.SF, sz.Density = 200, max(opt.Density/20, 2)
	case "tpch_power":
		sz.SF, sz.Density = 2, opt.Density
	case "htap_mixed":
		sz.SF, sz.Density = 2400, max(opt.Density/25, 2)
	case "serve_openloop":
		opt.Warmup, opt.Measure = sim.Second, 3*sim.Second
		sz.SF, sz.Density, sz.Rate, sz.QueryFrac = 200, max(opt.Density/20, 2), 4, 0.02
		sz.Warmup, sz.Measure = opt.Warmup, opt.Measure
	default:
		t.Fatalf("no tiny sizes for workload %q", name)
	}
	return sz, opt
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal
// to the tables the program emits from (regenerate it with
// `go run ./bench -spec > BENCHMARK.json`), and checks them against the
// driver contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	spec := benchmarkSpec()
	if !reflect.DeepEqual(onDisk, spec) {
		t.Errorf("BENCHMARK.json differs from the program's tables:\non disk %+v\nprogram %+v", onDisk, spec)
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, s := range spec.EndToEnd {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit, direction or bound", s)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, s := range spec.PerLayer {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") || s.Bound != 0 {
			t.Errorf("per-layer metric %+v: bad unit or direction, or a bound", s)
		}
	}
}

// TestSmoke runs every workload at tiny scale, traced, and checks that
// what it emits is exactly what the spec lists, that the output checks
// pass, and that the digest follows the seed.
func TestSmoke(t *testing.T) {
	tr := newTracer()
	for _, w := range workloads {
		sz, _ := tinySizes(t, w.Name)
		rp := runWorkload(w, sz, 1, budget{Reps: 1}, tr, nil, nil)
		for _, e := range rp.Errors {
			t.Errorf("%s: %s", w.Name, e)
		}
		// Only htap_mixed, which keeps its lock-timeout victims, may fail
		// operations.
		if rp.Ops <= 0 || rp.Attempted < rp.Ops || (rp.Failed != 0 && w.Name != "htap_mixed") {
			t.Errorf("%s: ops %d attempted %d failed %d", w.Name, rp.Ops, rp.Attempted, rp.Failed)
		}
		emitted := func(got map[string]stat, want []metricSpec) {
			t.Helper()
			if len(got) != len(want) {
				t.Errorf("%s: emitted %d metrics, spec lists %d", w.Name, len(got), len(want))
			}
			for _, s := range want {
				st, ok := got[s.Name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", w.Name, s.Name)
				} else if st.Unit != s.Unit || math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
					t.Errorf("%s: metric %s = %v %q, want a finite value in %q", w.Name, s.Name, st.Value, st.Unit, s.Unit)
				}
			}
		}
		emitted(rp.EndToEnd, endToEndSpec)
		emitted(rp.PerLayer, perLayerSpec)
		for _, s := range endToEndSpec {
			if rp.EndToEnd[s.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, s.Name, rp.EndToEnd[s.Name].Value)
			}
		}

		// runWorkload has already required the traced repetition's digest
		// to equal the untraced one; the seed must reach it too.
		if again := runRep(w, sz, 1, nil, nil); again.Digest != rp.Digest {
			t.Errorf("%s: seed 1 twice gave digests %s and %s", w.Name, rp.Digest, again.Digest)
		}
		if other := runRep(w, sz, 2, nil, nil); other.Digest == rp.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.Name, rp.Digest)
		}
	}
	if len(tr.spans) == 0 {
		t.Fatal("traced pass recorded no spans")
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs || s.SelfNs < 0 || s.SelfNs > s.EndNs-s.StartNs {
			t.Errorf("span %+v: self time outside [0, duration]", s)
		}
	}
}

// TestReference takes one reading of the host-speed reference and checks
// that a missing reference leaves times as measured.
func TestReference(t *testing.T) {
	ref := newReference()
	if s := ref.slowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown %v, want a positive finite ratio", s)
	}
	ref.stop()
	if s := (*reference)(nil).slowdown(); s != 1 {
		t.Errorf("nil reference: slowdown %v, want 1", s)
	}
}

// TestProbes runs the layer micro-probes once through.
func TestProbes(t *testing.T) {
	got := runProbes()
	for _, p := range probes {
		if ns := got["probe."+p.Name+"_ns"]; ns <= 0 {
			t.Errorf("probe %s: %v ns per call", p.Name, ns)
		}
	}
}

// TestProductPathEquivalence pins each benchmark cell, assembled from
// exported package APIs, to the harness entry point `dbsense` measures
// with: same seed and sizes, same throughput and counters.
func TestProductPathEquivalence(t *testing.T) {
	const seed = 1
	cell := func(name string) (simResult, harness.Options, sizes) {
		t.Helper()
		for _, w := range workloads {
			if w.Name == name {
				sz, opt := tinySizes(t, name)
				opt.Seed = seed
				r := w.Setup(seed, sz, nil)()
				if r.Err != nil {
					t.Fatalf("%s: %v", name, r.Err)
				}
				return r, opt, sz
			}
		}
		t.Fatalf("no workload %q", name)
		panic("unreachable")
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: bench %v, harness %v", what, got, want)
		}
	}

	t.Run("asdb_oltp", func(t *testing.T) {
		r, opt, sz := cell("asdb_oltp")
		h := harness.RunASDB(sz.SF, opt, harness.Knobs{})
		same("throughput", float64(r.Ops)/r.WindowS, h.Throughput)
		if r.Delta != h.Delta {
			t.Errorf("counters differ:\nbench   %+v\nharness %+v", r.Delta, h.Delta)
		}
	})
	t.Run("htap_mixed", func(t *testing.T) {
		r, opt, sz := cell("htap_mixed")
		h := harness.RunHTAP(sz.SF, opt, harness.Knobs{})
		same("throughput", float64(r.Ops)/r.WindowS, h.Throughput)
		if r.Delta != h.Delta {
			t.Errorf("counters differ:\nbench   %+v\nharness %+v", r.Delta, h.Delta)
		}
	})
	t.Run("tpch_power", func(t *testing.T) {
		r, opt, sz := cell("tpch_power")
		h := harness.Fig6(sz.SF, opt, []int{32})
		var total sim.Duration
		var ms []float64
		for q := 1; q <= tpch.NumQueries; q++ {
			total += h.Elapsed[q][32]
			ms = append(ms, float64(h.Elapsed[q][32])/float64(sim.Millisecond))
		}
		sort.Float64s(ms)
		same("summed query time", r.WindowS, total.Seconds())
		same("median query time", r.P50Ms, (ms[10]+ms[11])/2)
	})
	t.Run("serve_openloop", func(t *testing.T) {
		r, opt, sz := cell("serve_openloop")
		h := harness.ServeOnce(sz.SF, opt, harness.Knobs{}, sz.Rate, false)
		same("goodput", float64(r.Ops)/r.WindowS, h.GoodputRPS)
		same("offered rps", r.Layer["client.offered_rps"], h.OfferedRPS)
		same("accepted conns", r.Layer["serve.accepted_conns"], float64(h.Accepted))
		same("shed", r.Layer["serve.shed"], float64(h.Shed))
		same("degraded", r.Layer["serve.degraded_queries"], float64(h.Degraded))
		same("refused", r.Layer["client.refused_dials"], float64(h.Refused))
		same("dropped", r.Layer["client.dropped_reqs"], float64(h.Dropped))
	})
	t.Run("repl_quorum", func(t *testing.T) {
		r, opt, sz := cell("repl_quorum")
		h := harness.Replication(sz.SF, opt, []repl.Mode{repl.ModeQuorum}, []float64{200}, []int{2}).Points[0]
		if h.Err != "" {
			t.Fatalf("harness cell: %s", h.Err)
		}
		same("tps", float64(r.Ops)/r.WindowS, h.TPS)
		same("ack wait ms", float64(r.Delta.WaitNs[metrics.WaitReplAck])/float64(r.Delta.TxnCommits)/1e6, h.CommitAckMs)
		same("shipped MB", r.Layer["repl.shipped_bytes"]/1e6, h.ShippedMB)
		same("applied txns", r.Layer["repl.applied_txns"], float64(h.AppliedTxns))
		same("max lag KB", r.Layer["repl.max_lag_kb"], h.MaxLagKB)
		same("unacked", r.Layer["repl.unacked_commits"], float64(h.Unacked))
	})
}

// TestCompare checks the bound logic of -compare on synthetic results.
func TestCompare(t *testing.T) {
	mk := func(wall float64) results {
		e := map[string]stat{}
		for _, s := range endToEndSpec {
			e[s.Name] = stat{Value: 1, Min: 1, Max: 1, N: 1, Unit: s.Unit}
		}
		e["host_wall_us_per_op"] = stat{Value: wall, Min: wall, Max: wall, N: 3, Unit: "us/op"}
		return results{Workloads: []report{{Workload: "asdb_oltp", EndToEnd: e}}}
	}
	var bound float64
	for _, s := range endToEndSpec {
		if s.Name == "host_wall_us_per_op" {
			bound = s.Bound
		}
	}
	if code := compare(mk(100), mk(100*(1+bound/2))); code != 0 {
		t.Errorf("a move of half the bound: exit %d, want 0", code)
	}
	if code := compare(mk(100), mk(100*(1+2*bound))); code != 1 {
		t.Errorf("a move of twice the bound: exit %d, want 1", code)
	}
	if code := compare(mk(100), mk(50)); code != 0 {
		t.Errorf("an improvement: exit %d, want 0", code)
	}
	if w := worsening("higher", 10, 9); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening(higher, 10, 9) = %v, want 0.1", w)
	}
}
