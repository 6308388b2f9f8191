package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Event is one scripted fault: at simulated time At (relative to run
// start) the named axis applies with Magnitude; after Dur it clears.
// Dur 0 fires a one-shot axis (conn-reset) or applies-and-clears a
// stateful axis instantaneously.
type Event struct {
	At        sim.Duration
	Dur       sim.Duration
	Axis      string
	Magnitude float64
}

// Schedule is an ordered, composable fault timeline. Events on
// different axes may overlap (each axis runs its own walker proc);
// events on the same axis are exclusive — each axis holds a single
// state — and overlap is rejected by Validate.
type Schedule []Event

// AxisNames lists every axis name a schedule entry may reference, in
// canonical order.
func AxisNames() []string {
	return []string{
		"io-stall", "io-error", "wal-slow", "buffer-spike", "grant-starve",
		"cpuset-shrink", "repl-link-stall", "replica-slow",
		"net-partition", "net-loss", "net-degrade", "conn-reset",
	}
}

func knownAxis(name string) bool {
	for _, n := range AxisNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Validate checks the schedule before any side effect: unknown axis
// names, negative times, durations or magnitudes, or overlapping
// same-axis events.
func (c Config) Validate() error {
	byAxis := map[string][]Event{}
	for i, ev := range c.Schedule {
		if !knownAxis(ev.Axis) {
			return fmt.Errorf("fault: schedule[%d]: unknown axis %q (known: %v)", i, ev.Axis, AxisNames())
		}
		if ev.At < 0 {
			return fmt.Errorf("fault: schedule[%d] (%s): negative start %v", i, ev.Axis, ev.At)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("fault: schedule[%d] (%s): negative duration %v", i, ev.Axis, ev.Dur)
		}
		if ev.Magnitude < 0 {
			return fmt.Errorf("fault: schedule[%d] (%s): negative magnitude %g", i, ev.Axis, ev.Magnitude)
		}
		if ev.Axis == "net-partition" {
			if m := int(ev.Magnitude); m < 0 || m > 3 {
				return fmt.Errorf("fault: schedule[%d]: net-partition magnitude %g is not a mode (0/1 full, 2 to-server, 3 to-client)", i, ev.Magnitude)
			}
		}
		byAxis[ev.Axis] = append(byAxis[ev.Axis], ev)
	}
	for axis, evs := range byAxis {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].At+evs[i-1].Dur {
				return fmt.Errorf("fault: schedule: overlapping events on exclusive axis %s (at %v and %v)",
					axis, evs[i-1].At, evs[i].At)
			}
		}
	}
	return nil
}

// ScheduleNames lists the named chaos scenarios BuildNamedSchedule
// accepts, in canonical order. "none" is the empty timeline (the
// chaos-off leg of a matrix).
func ScheduleNames() []string {
	return []string{"none", "partition", "flaky", "degrade", "reset-storm", "split-burst"}
}

// BuildNamedSchedule expands a named chaos scenario into a concrete
// timeline over a warmup+measure window. Event times carry a small
// seeded jitter so different seeds explore different alignments while
// the same seed always reproduces the same plan (DeepEqual-identical).
func BuildNamedSchedule(name string, seed int64, warmup, measure sim.Duration) (Schedule, error) {
	rng := sim.NewRNG(seed ^ 0x73636865) // "sche": private stream per plan
	jit := func(at sim.Duration) sim.Duration {
		// ±measure/40 of jitter, never crossing into warmup.
		j := sim.Duration(rng.Float64() * float64(measure) / 20)
		at += j - measure/40
		if at < warmup {
			at = warmup
		}
		return at
	}
	w, m := warmup, measure
	switch name {
	case "none":
		return nil, nil
	case "partition":
		// Full partition early, asymmetric client→server cut later.
		return Schedule{
			{At: jit(w + m/4), Dur: m / 8, Axis: "net-partition", Magnitude: 1},
			{At: jit(w + 5*m/8), Dur: m / 8, Axis: "net-partition", Magnitude: 2},
		}, nil
	case "flaky":
		// Background frame loss with a mid-window reset wave.
		return Schedule{
			{At: jit(w + m/5), Dur: m / 5, Axis: "net-loss", Magnitude: 0.05},
			{At: jit(w + m/2), Dur: 0, Axis: "conn-reset", Magnitude: 0.5},
			{At: jit(w + 7*m/10), Dur: m / 6, Axis: "net-loss", Magnitude: 0.15},
		}, nil
	case "degrade":
		// Sustained 4x bandwidth/latency degradation through mid-window.
		return Schedule{
			{At: jit(w + m/4), Dur: m / 2, Axis: "net-degrade", Magnitude: 4},
		}, nil
	case "reset-storm":
		// Three full reset waves in quick succession.
		return Schedule{
			{At: jit(w + m/3), Dur: 0, Axis: "conn-reset", Magnitude: 1},
			{At: jit(w + m/2), Dur: 0, Axis: "conn-reset", Magnitude: 1},
			{At: jit(w + 2*m/3), Dur: 0, Axis: "conn-reset", Magnitude: 1},
		}, nil
	case "split-burst":
		// The ISSUE's marquee scenario: partition the serving segment
		// and the replication link together during the storm window,
		// then reset the survivors as the partition heals.
		start := jit(w + m/4)
		return Schedule{
			{At: start, Dur: m / 6, Axis: "net-partition", Magnitude: 1},
			{At: start, Dur: m / 6, Axis: "repl-link-stall", Magnitude: 1},
			{At: start + m/6 + m/50, Dur: 0, Axis: "conn-reset", Magnitude: 1},
		}, nil
	}
	return nil, fmt.Errorf("fault: unknown schedule %q (known: %v)", name, ScheduleNames())
}
