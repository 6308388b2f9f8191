package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestFaultFreeKnobsMatchBaseline pins the tentpole's determinism
// guarantee: a disabled fault config must leave a run byte-identical to
// one that never mentions faults at all.
func TestFaultFreeKnobsMatchBaseline(t *testing.T) {
	opt := TestOptions()
	fc := fault.Config{Seed: opt.Seed} // intensity 0: the injector must not even start
	a := RunASDB(2, opt, Knobs{})
	b := RunASDB(2, opt, Knobs{Faults: &fc})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-free run diverged from baseline:\n%+v\nvs\n%+v", a.Delta, b.Delta)
	}
}

// TestFaultedRunDeterminism: same seed and fault config, identical
// results — including the fault timeline and every recovery counter.
func TestFaultedRunDeterminism(t *testing.T) {
	opt := TestOptions()
	knobs := func() Knobs {
		return Knobs{
			Faults:      &fault.Config{Seed: opt.Seed, Intensity: 4},
			StmtTimeout: 30 * sim.Second,
			Retry:       true,
		}
	}
	a := RunASDB(2, opt, knobs())
	b := RunASDB(2, opt, knobs())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\n%+v\nvs\n%+v", a.Delta, b.Delta)
	}
	if a.Delta.FaultsInjected == 0 {
		t.Fatal("no faults injected at intensity 4")
	}
	if a.Throughput <= 0 {
		t.Fatalf("throughput = %f under faults", a.Throughput)
	}
}

func TestResilienceSweepEndToEnd(t *testing.T) {
	opt := TestOptions()
	g := SweepAxis(faultAxis(opt.Seed), []float64{0, 2}, []Cell{{WTpce, 200}}, opt)
	if len(g.Results[0]) != 2 {
		t.Fatalf("points = %d", len(g.Results[0]))
	}
	p0, p1 := g.Results[0][0], g.Results[0][1]
	if r := retention(g, 0, 0); r != 1 {
		t.Fatalf("anchor retention = %f, want 1", r)
	}
	if p0.Delta.FaultsInjected != 0 {
		t.Fatalf("anchor injected %d faults", p0.Delta.FaultsInjected)
	}
	if p1.Delta.FaultsInjected == 0 {
		t.Fatal("intensity 2 injected no faults")
	}
	if p1.Throughput <= 0 {
		t.Fatalf("throughput = %f under faults", p1.Throughput)
	}
	out := RenderResilience(g)
	for _, col := range []string{"intensity", "retain%", "txn-rtry", "dl-kill"} {
		if !strings.Contains(out, col) {
			t.Fatalf("rendered table missing %q:\n%s", col, out)
		}
	}
}
