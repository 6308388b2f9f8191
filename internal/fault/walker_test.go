package fault

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// refSpawn is the injector's two event loops as they were before walk
// replaced them — the Poisson loop (refAxis) and the scripted loop
// (refStartSchedule), bodies verbatim — kept as the oracle for
// TestWalkerMatchesReference.
func (in *Injector) refSpawn(acts map[string]axisAction) {
	for i, ax := range in.axes {
		act, ok := acts[ax.name]
		if !ok {
			continue
		}
		mag := ax.magnitude
		in.refAxis(ax.name, ax, in.axisRNG[i], func() { act.apply(mag) }, act.clear)
	}
	in.refStartSchedule(acts)
}

func (in *Injector) refAxis(name string, ax poissonAxis, rng *sim.RNG, apply, clear func()) {
	rate := ax.rate * in.cfg.Intensity
	if rate <= 0 {
		return
	}
	meanGapNs := 1e9 / rate
	in.sm.Spawn("fault-"+name, func(p *sim.Proc) {
		for {
			if !in.sleep(p, sim.Duration(rng.Exp(meanGapNs))) {
				return
			}
			in.t.Ctr.FaultsInjected++
			apply()
			ok := in.sleep(p, sim.Duration(rng.Exp(ax.durNs)))
			clear()
			if !ok {
				return
			}
		}
	})
}

func (in *Injector) refStartSchedule(acts map[string]axisAction) {
	if len(in.cfg.Schedule) == 0 {
		return
	}
	byAxis := map[string]Schedule{}
	for _, ev := range in.cfg.Schedule {
		byAxis[ev.Axis] = append(byAxis[ev.Axis], ev)
	}
	names := make([]string, 0, len(byAxis))
	for name := range byAxis {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		act, ok := acts[name]
		if !ok {
			continue // target absent: the scripted axis has nothing to act on
		}
		evs := byAxis[name]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		in.sm.Spawn("fault-sched-"+name, func(p *sim.Proc) {
			for _, ev := range evs {
				if !in.refSleepUntil(p, sim.Time(ev.At)) {
					return
				}
				in.t.Ctr.FaultsInjected++
				act.apply(ev.Magnitude)
				if ev.Dur > 0 {
					ok := in.sleep(p, ev.Dur)
					act.clear()
					if !ok {
						return
					}
				} else {
					act.clear()
				}
			}
		})
	}
}

func (in *Injector) refSleepUntil(p *sim.Proc, t sim.Time) bool {
	d := sim.Duration(t - p.Now())
	if d <= 0 {
		return !in.stopped
	}
	return in.sleep(p, d)
}

// faultStep is one observable action of the injector.
type faultStep struct {
	At    sim.Time
	Axis  string
	Apply bool // false = clear
	Mag   float64
}

// traceRun runs cfg on a fresh simulation with a recording action on
// every axis, stops the injector at stopAt and drains, and returns what
// the walkers did, in the order they did it. Grant-starve and
// cpuset-shrink events are long, so the early stops land inside some.
func traceRun(spawn func(*Injector, map[string]axisAction), cfg Config, stopAt sim.Time) ([]faultStep, int64) {
	sm := sim.New(1)
	ctr := &metrics.Counters{}
	in := New(sm, cfg, Targets{Ctr: ctr})
	in.axes[4].durNs, in.axes[5].durNs = 4e9, 12e9
	var steps []faultStep
	acts := map[string]axisAction{}
	for _, name := range AxisNames() {
		acts[name] = axisAction{
			apply: func(m float64) { steps = append(steps, faultStep{sm.Now(), name, true, m}) },
			clear: func() { steps = append(steps, faultStep{sm.Now(), name, false, 0}) },
		}
	}
	spawn(in, acts)
	sm.Run(stopAt)
	in.Stop()
	sm.Run(stopAt + sim.Time(60*sim.Second))
	return steps, ctr.FaultsInjected
}

// randomSchedule draws a valid timeline: per axis, non-overlapping events
// in shuffled order, some instantaneous, some starting at time zero, some
// a nanosecond after the previous one ends.
func randomSchedule(g *sim.RNG) Schedule {
	var s Schedule
	for _, axis := range []string{"io-stall", "net-partition", "conn-reset", "repl-link-stall", "archive-loss"} {
		var at sim.Duration
		if g.Bool(0.7) {
			at = sim.Duration(g.Int64n(int64(2 * sim.Second)))
		}
		for n := g.Intn(5); n > 0; n-- {
			ev := Event{At: at, Axis: axis, Magnitude: float64(1 + g.Intn(3))}
			if g.Bool(0.7) {
				ev.Dur = sim.Duration(g.Int64n(int64(8 * sim.Second)))
			}
			s = append(s, ev)
			at += ev.Dur + 1
			if g.Bool(0.7) {
				at += sim.Duration(g.Int64n(int64(3 * sim.Second)))
			}
		}
	}
	for i := len(s) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// TestWalkerMatchesReference: for Poisson axes, scripted axes and both
// together, across seeds, intensities and an early Stop that lands inside
// events, the one walker does exactly what the two loops it replaced did
// — the same applies and clears with the same magnitudes at the same
// instants in the same order, and the same FaultsInjected.
func TestWalkerMatchesReference(t *testing.T) {
	var poissonSteps, scriptedSteps, stoppedMidEvent int
	for seed := int64(1); seed <= 12; seed++ {
		for _, intensity := range []float64{0, 0.5, 4, 32} {
			for _, scripted := range []bool{false, true} {
				for _, stopAt := range []sim.Time{sim.Time(2500 * sim.Millisecond), sim.Time(9 * sim.Second), sim.Time(40 * sim.Second)} {
					cfg := Config{Seed: seed, Intensity: intensity}
					if scripted {
						cfg.Schedule = randomSchedule(sim.NewRNG(seed))
						if err := cfg.Validate(); err != nil {
							t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
						}
					}
					name := fmt.Sprintf("seed %d intensity %g scripted %v stop %v", seed, intensity, scripted, stopAt)
					want, wantN := traceRun((*Injector).refSpawn, cfg, stopAt)
					got, gotN := traceRun((*Injector).spawnWalkers, cfg, stopAt)
					if gotN != wantN {
						t.Fatalf("%s: FaultsInjected = %d, reference %d", name, gotN, wantN)
					}
					if !slices.Equal(got, want) {
						i := 0
						for i < len(got) && i < len(want) && got[i] == want[i] {
							i++
						}
						t.Fatalf("%s: traces diverge at step %d (%d steps, reference %d):\n got %+v\nwant %+v",
							name, i, len(got), len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
					}
					if intensity > 0 && !scripted {
						poissonSteps += len(want)
					}
					if intensity == 0 {
						scriptedSteps += len(want)
					}
					for _, s := range want {
						if !s.Apply && s.At > stopAt {
							stoppedMidEvent++
						}
					}
				}
			}
		}
	}
	// The comparison must not pass on empty traces or miss the stop path.
	if poissonSteps == 0 || scriptedSteps == 0 || stoppedMidEvent == 0 {
		t.Fatalf("coverage: %d Poisson steps, %d scripted steps, %d clears after Stop — want all non-zero",
			poissonSteps, scriptedSteps, stoppedMidEvent)
	}
}
