package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestBuildNamedScheduleDeterministic(t *testing.T) {
	const w, m = 1 * sim.Second, 10 * sim.Second
	for _, name := range ScheduleNames() {
		a, err := BuildNamedSchedule(name, 42, w, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := BuildNamedSchedule(name, 42, w, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different plans:\n%v\n%v", name, a, b)
		}
		if name == "none" {
			if a != nil {
				t.Fatalf("none: non-empty plan %v", a)
			}
			continue
		}
		c, err := BuildNamedSchedule(name, 43, w, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical plans (no jitter?)", name)
		}
		// Every named plan must pass validation as-is.
		cfg := Config{Seed: 1, Schedule: a}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: built plan fails Validate: %v", name, err)
		}
	}
	if _, err := BuildNamedSchedule("nope", 1, w, m); err == nil {
		t.Fatal("unknown schedule name accepted")
	}
}

func TestValidateRejectsMalformedConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown-axis", Config{Schedule: Schedule{{Axis: "gremlins"}}}, "unknown axis"},
		{"negative-at", Config{Schedule: Schedule{{Axis: "net-loss", At: -sim.Second}}}, "negative start"},
		{"negative-dur", Config{Schedule: Schedule{{Axis: "net-loss", Dur: -sim.Second}}}, "negative duration"},
		{"negative-mag", Config{Schedule: Schedule{{Axis: "net-loss", Magnitude: -1}}}, "negative magnitude"},
		{"partition-mode", Config{Schedule: Schedule{{Axis: "net-partition", Magnitude: 7}}}, "not a mode"},
		{"same-axis-overlap", Config{Schedule: Schedule{
			{Axis: "net-loss", At: sim.Second, Dur: 2 * sim.Second, Magnitude: 0.1},
			{Axis: "net-loss", At: 2 * sim.Second, Dur: sim.Second, Magnitude: 0.2},
		}}, "overlapping"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a malformed config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Different axes may overlap freely: that is the composability contract.
	ok := Config{Schedule: Schedule{
		{Axis: "net-partition", At: sim.Second, Dur: 2 * sim.Second, Magnitude: 1},
		{Axis: "repl-link-stall", At: sim.Second, Dur: 2 * sim.Second},
		{Axis: "conn-reset", At: 2 * sim.Second, Magnitude: 1},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("cross-axis overlap rejected: %v", err)
	}
}

func TestScheduledEventsFireInOrderAndClear(t *testing.T) {
	sm := sim.New(1)
	ctr := &metrics.Counters{}
	tg, dev := devTargets(sm, ctr)
	cfg := Config{Seed: 9, Schedule: Schedule{
		{At: sim.Second, Dur: sim.Second, Axis: "io-stall", Magnitude: 5e6},
		{At: 3 * sim.Second, Dur: sim.Second, Axis: "io-stall", Magnitude: 2e6},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	in := New(sm, cfg, tg)
	in.Start()
	probe := func(at sim.Time, want float64) {
		sm.Spawn("probe", func(p *sim.Proc) {
			p.Sleep(sim.Duration(at - p.Now()))
			f := dev.FaultState()
			if f == nil {
				t.Errorf("at %v: no fault state", at)
				return
			}
			if f.StallNs != want {
				t.Errorf("at %v: StallNs = %g, want %g", at, f.StallNs, want)
			}
		})
	}
	probe(sim.Time(1500*sim.Millisecond), 5e6) // inside event 1
	probe(sim.Time(2500*sim.Millisecond), 0)   // between events: cleared
	probe(sim.Time(3500*sim.Millisecond), 2e6) // inside event 2
	sm.Run(sim.Time(10 * sim.Second))
	if ctr.FaultsInjected != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", ctr.FaultsInjected)
	}
	if f := dev.FaultState(); f.StallNs != 0 {
		t.Fatalf("stall left active after schedule drained: %+v", f)
	}
}

func TestScheduleArmedButUnfiredInjectsNothing(t *testing.T) {
	// A schedule whose events lie beyond the run window arms walker procs
	// but never fires: the injector must leave no trace (the chaos-off
	// byte-identity story depends on armed-but-idle machinery being inert).
	sm := sim.New(1)
	ctr := &metrics.Counters{}
	tg, dev := devTargets(sm, ctr)
	cfg := Config{Seed: 5, Schedule: Schedule{
		{At: 100 * sim.Second, Dur: sim.Second, Axis: "io-stall", Magnitude: 1e6},
	}}
	in := New(sm, cfg, tg)
	in.Start()
	var total sim.Duration
	sm.Spawn("reader", func(p *sim.Proc) {
		for p.Now() < sim.Time(5*sim.Second) {
			total += dev.Read(p, 64<<10)
		}
	})
	sm.Run(sim.Time(5 * sim.Second))
	in.Stop()
	if ctr.FaultsInjected != 0 {
		t.Fatalf("FaultsInjected = %d before any scheduled event", ctr.FaultsInjected)
	}
	if f := dev.FaultState(); f != nil && (f.StallNs != 0 || f.ErrProb != 0) {
		t.Fatalf("armed schedule perturbed the device: %+v", f)
	}
	if total == 0 {
		t.Fatal("reader made no progress")
	}
}
