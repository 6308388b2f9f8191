package fault

import (
	"testing"

	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func devTargets(sm *sim.Sim, ctr *metrics.Counters) (Targets, *iodev.Device) {
	dev := iodev.New(iodev.PaperSSD(), ctr)
	return Targets{Dev: dev, Ctr: ctr}, dev
}

func TestDisabledConfigInjectsNothing(t *testing.T) {
	sm := sim.New(1)
	ctr := &metrics.Counters{}
	tg, dev := devTargets(sm, ctr)
	cfg := Config{Seed: 7}
	if cfg.Enabled() {
		t.Fatal("intensity 0 should disable the config")
	}
	New(sm, cfg, tg).Start()
	sm.Run(sim.Time(30 * sim.Second))
	if ctr.FaultsInjected != 0 {
		t.Fatalf("FaultsInjected = %d with disabled config", ctr.FaultsInjected)
	}
	if dev.FaultState() != nil {
		t.Fatal("disabled injector installed a device fault state")
	}
}

func TestInjectorTimelineDeterministic(t *testing.T) {
	run := func() (int64, int64, sim.Duration) {
		sm := sim.New(1)
		ctr := &metrics.Counters{}
		tg, dev := devTargets(sm, ctr)
		cfg := Config{Seed: 7, Intensity: 8}
		in := New(sm, cfg, tg)
		in.Start()
		var total sim.Duration
		sm.Spawn("reader", func(p *sim.Proc) {
			for p.Now() < sim.Time(20*sim.Second) {
				total += dev.Read(p, 64<<10)
			}
		})
		sm.Run(sim.Time(20 * sim.Second))
		in.Stop()
		sm.Run(sim.Time(60 * sim.Second))
		return ctr.FaultsInjected, ctr.FaultIOErrors, total
	}
	f1, e1, t1 := run()
	f2, e2, t2 := run()
	if f1 != f2 || e1 != e2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", f1, e1, t1, f2, e2, t2)
	}
	if f1 == 0 {
		t.Fatal("no faults injected at intensity 8 over 20s")
	}
}

func TestInjectorStopsCleanly(t *testing.T) {
	sm := sim.New(1)
	ctr := &metrics.Counters{}
	tg, dev := devTargets(sm, ctr)
	cfg := Config{Seed: 3, Intensity: 16}
	in := New(sm, cfg, tg)
	in.Start()
	sm.Run(sim.Time(10 * sim.Second))
	in.Stop()
	// All injector procs must drain within the post-stop window, leaving
	// no active fault behind (clear runs even when stopped mid-event).
	sm.Run(sim.Time(60 * sim.Second))
	f := dev.FaultState()
	if f == nil {
		t.Fatal("no device fault state installed")
	}
	if f.StallNs != 0 || f.ErrProb != 0 {
		t.Fatalf("fault left active after stop: %+v", f)
	}
}
