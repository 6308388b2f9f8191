package telemetry

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestNilSafety: every hot-path mutator and registration method must be
// a no-op on nil receivers, so disarmed servers need no guards.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Histogram("a", "b") != nil {
		t.Fatal("nil registry returned a hist")
	}
	r.CounterFunc("a", "b", "u", func() float64 { return 0 })
	r.Gauge("a", "b", "u", func() float64 { return 0 })
	r.Start(nil)
	r.Stop(0)
	if r.Snapshot() != nil {
		t.Fatal("nil registry returned a snapshot")
	}
	var h *Hist
	h.Observe(sim.Millisecond)
}

// TestHotPathAllocs pins the armed and disarmed hot-path mutators at
// zero allocations: telemetry must never add GC pressure to simulated
// hot loops.
func TestHotPathAllocs(t *testing.T) {
	var nilH *Hist
	h := &Hist{}
	for name, fn := range map[string]func(){
		"nil-hist": func() { nilH.Observe(sim.Microsecond) },
		"hist":     func() { h.Observe(sim.Microsecond) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, allocs)
		}
	}
}

// TestDuplicateRegistrationPanics: series names are a flat namespace;
// re-registration is a programming error caught loudly.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("wal", "flushes", "ops", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("wal", "flushes", "ops", func() float64 { return 0 })
}

// buildSampledRegistry runs one deterministic sim with a registry
// sampling a counter, a gauge, and a histogram for 10 simulated seconds.
func buildSampledRegistry() *Snapshot {
	sm := sim.New(1)
	r := NewRegistry()
	var commits, level float64
	r.CounterFunc("txn", "commits", "ops", func() float64 { return commits })
	r.Gauge("grant", "occupancy", "frac", func() float64 { return level })
	h := r.Histogram("wal", "flush_latency")
	sm.Spawn("work", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(100 * sim.Millisecond)
			commits += float64(i % 7)
			level = float64(i%10) / 10
			h.Observe(sim.Duration(i+1) * sim.Microsecond)
		}
	})
	r.Start(sm)
	end := sm.Run(sim.Time(10*sim.Second + 50*sim.Millisecond))
	r.Stop(end)
	return r.Snapshot()
}

// TestRegistryDeterminism: two identical sims yield deep-equal
// snapshots (run under -race in CI, this also exercises the sampler
// proc for data races against the mutating proc).
func TestRegistryDeterminism(t *testing.T) {
	a, b := buildSampledRegistry(), buildSampledRegistry()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}
	if len(a.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(a.Series))
	}
	// Sorted by (subsystem, name).
	for i := 1; i < len(a.Series); i++ {
		prev, cur := a.Series[i-1], a.Series[i]
		if prev.Subsystem+"."+prev.Name >= cur.Subsystem+"."+cur.Name {
			t.Fatalf("snapshot not sorted: %q before %q", prev.Name, cur.Name)
		}
	}
}

// TestCounterSampledAsDeltas: counter series points are per-interval
// deltas whose sum equals the cumulative total.
func TestCounterSampledAsDeltas(t *testing.T) {
	snap := buildSampledRegistry()
	var counter *SeriesData
	for i := range snap.Series {
		if snap.Series[i].Kind == KindCounter {
			counter = &snap.Series[i]
		}
	}
	if counter == nil {
		t.Fatal("no counter series in snapshot")
	}
	var sum float64
	for _, pt := range counter.Points {
		sum += pt.Value
	}
	// 100 increments of i%7: 14 full cycles (0+...+6=21) + 0+1.
	want := float64(14*21 + 1)
	if sum != want || counter.Total != want {
		t.Fatalf("delta sum %.0f, total %.0f, want %.0f", sum, counter.Total, want)
	}
}

// TestRingBufferCaps: a series sampled past ringCap keeps only the newest
// points, oldest evicted first.
func TestRingBufferCaps(t *testing.T) {
	const secs = ringCap + 8
	sm := sim.New(1)
	r := NewRegistry()
	tick := 0.0
	r.Gauge("x", "t", "s", func() float64 { tick++; return tick })
	r.Start(sm)
	end := sm.Run(sim.Time(secs * sim.Second))
	r.Stop(end)
	pts := r.Snapshot().Series[0].Points
	if len(pts) != ringCap {
		t.Fatalf("ring held %d points, want %d", len(pts), ringCap)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At <= pts[i-1].At {
			t.Fatal("ring points out of order")
		}
	}
	if pts[ringCap-1].At != sim.Time(secs*sim.Second) {
		t.Fatalf("newest point at %v, want %ds", pts[ringCap-1].At, secs)
	}
}

// TestSharedPercentileHelpers covers the helper shared with
// metrics.Distribution and the harness CDF path.
func TestSharedPercentileHelpers(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := PercentileSorted(sorted, c.p); got != c.want {
			t.Errorf("PercentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if PercentileSorted(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
	if got := MeanOf(sorted); got != 3 {
		t.Errorf("MeanOf = %v, want 3", got)
	}
}
