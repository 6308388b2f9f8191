// Package fault implements seeded, deterministic fault injection for the
// simulated engine. An Injector schedules transient fault events off the
// sim clock — IO stalls and errors, WAL-device slowdowns, buffer-pool
// pressure spikes, workspace-grant starvation, mid-run cpuset shrinks,
// and network misbehavior (partitions, frame loss, link degradation,
// connection resets) — so resilience experiments reproduce
// bit-identically: the same seed and config yield the same fault
// timeline, and a disabled config injects nothing at all (no procs
// spawned, no RNG draws), leaving fault-free runs byte-for-byte
// identical to a build without the injector.
//
// Every axis is one proc walking one timeline of Events (walk). The
// timeline comes from one of two sources: a scripted Schedule — an
// ordered, composable list of named-axis events that reproduces a
// specific scenario ("partition the segment during a connection storm,
// then reset every connection") from one config — or, for the six
// Poisson axes (the resilience sweep's background noise, one fixed table
// scaled by Intensity), events drawn lazily from the axis's private
// stream. The replication and network axes are reachable through a
// Schedule only. A primary crash is not an axis: it is the engine's
// CrashPlan.
//
// The injector draws from its own RNG seeded independently of the
// simulation's, so enabling faults never perturbs the workload's random
// streams — throughput differences between a faulted and a fault-free run
// are attributable to the faults alone.
package fault

import (
	"sort"

	"repro/internal/buffer"
	"repro/internal/cgroup"
	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Config selects how hard the Poisson axes run and which events a
// schedule scripts.
type Config struct {
	// Seed seeds the injector's private RNG. Runs with equal seeds and
	// configs produce identical fault timelines.
	Seed int64

	// Intensity is a master multiplier on every Poisson axis's rate: the
	// x-axis of a resilience sweep. Zero (or negative) disables all
	// Poisson injection (a non-empty Schedule still runs).
	Intensity float64

	// Schedule is a scripted fault timeline layered over (or instead of)
	// the Poisson axes: ordered events on named axes, validated up front
	// by Validate. Events on different axes may overlap; events on the
	// same axis may not (each axis holds one exclusive state).
	Schedule Schedule
}

// poissonAxis is one class of background fault event. Events arrive as
// a Poisson process at rate events per simulated second (scaled by the
// config's Intensity) and last an exponentially distributed duration
// with mean durNs. magnitude is the axis-specific severity while an
// event is active.
type poissonAxis struct {
	name      string
	rate      float64
	durNs     float64
	magnitude float64
}

// poissonAxes is the resilience sweep's fault mix at Intensity 1, in the
// fixed injector order (the order the axis procs spawn in and the index
// of each axis's private RNG stream): a few transient events per second,
// each lasting hundreds of milliseconds — the cadence of noisy-neighbour
// interference rather than hard failures.
var poissonAxes = [6]poissonAxis{
	{"io-stall", 0.5, 200e6, 2e6},     // extra ns added to every device request
	{"io-error", 0.3, 100e6, 0.3},     // per-request transient failure probability
	{"wal-slow", 0.3, 300e6, 500e3},   // extra ns charged to every log flush
	{"buffer-spike", 0.2, 500e6, 0.5}, // fraction of buffer capacity stolen
	{"grant-starve", 0.2, 500e6, 0.6}, // fraction of workspace reserved away
	{"cpuset-shrink", 0.1, 1e9, 0.5},  // fraction of allowed cores removed
}

// Enabled reports whether this config injects anything at all.
func (c Config) Enabled() bool {
	return len(c.Schedule) > 0 || c.Intensity > 0
}

// GrantTarget is the slice of the engine server the grant-starvation axis
// needs. It is an interface so this package does not import the engine
// (which imports the packages this one targets).
type GrantTarget interface {
	// WorkspaceBytes returns the configured workspace size.
	WorkspaceBytes() int64
	// SetFaultReserve reserves bytes of workspace away from queries
	// (0 clears the reservation and wakes grant waiters).
	SetFaultReserve(bytes int64)
}

// ReplTarget is the slice of a replication cluster the repl axes need
// (an interface for the same import-cycle reason as GrantTarget:
// internal/repl imports this package's config types via the harness).
type ReplTarget interface {
	// SetLinkDown partitions (true) or heals (false) every replication
	// link; shippers park while down and commit-mode acks stop arriving.
	SetLinkDown(down bool)
	// SetReplicaFlushPenalty charges extra ns to every standby WAL flush
	// (0 clears it) — the slow-replica degradation mode.
	SetReplicaFlushPenalty(ns float64)
}

// Targets are the subsystems the injector acts on. Nil targets disable
// the corresponding axes.
type Targets struct {
	Dev    *iodev.Device
	Log    *wal.Log
	BP     *buffer.Pool
	CPUs   *cgroup.CPUSet
	Grants GrantTarget
	Repl   ReplTarget
	Net    *net.Network
	Ctr    *metrics.Counters
}

// axisAction is one axis's apply/clear pair.
type axisAction struct {
	apply func(mag float64)
	clear func()
}

// Injector drives the fault timeline for one simulation run.
type Injector struct {
	sm   *sim.Sim
	cfg  Config
	t    Targets
	axes [6]poissonAxis // this injector's copy of poissonAxes

	// One forked stream per axis, plus one for the device fault state's
	// per-request draws. Forked unconditionally in a fixed order so that
	// enabling or tuning one axis never shifts another's stream.
	axisRNG [6]*sim.RNG
	devRNG  *sim.RNG

	stopped bool
}

// New creates an injector. Nothing runs until Start.
func New(sm *sim.Sim, cfg Config, t Targets) *Injector {
	in := &Injector{sm: sm, cfg: cfg, t: t, axes: poissonAxes}
	root := sim.NewRNG(cfg.Seed)
	for i := range in.axisRNG {
		in.axisRNG[i] = root.Fork()
	}
	in.devRNG = root.Fork()
	return in
}

// Stop ends injection: axis procs exit at their next wakeup, restoring
// their targets on the way out.
func (in *Injector) Stop() { in.stopped = true }

// buildActions binds every axis whose target is present to its
// apply/clear pair. Absent targets simply have no entry.
func (in *Injector) buildActions() map[string]axisAction {
	acts := make(map[string]axisAction)
	if in.t.Dev != nil {
		devFault := iodev.NewFault(in.devRNG)
		in.t.Dev.SetFault(devFault)
		acts["io-stall"] = axisAction{
			apply: func(m float64) { devFault.StallNs = m },
			clear: func() { devFault.StallNs = 0 },
		}
		acts["io-error"] = axisAction{
			apply: func(m float64) { devFault.ErrProb = m },
			clear: func() { devFault.ErrProb = 0 },
		}
	}
	if in.t.Log != nil {
		acts["wal-slow"] = axisAction{
			apply: func(m float64) { in.t.Log.SetFlushPenalty(m) },
			clear: func() { in.t.Log.SetFlushPenalty(0) },
		}
	}
	if in.t.BP != nil {
		acts["buffer-spike"] = axisAction{
			apply: func(m float64) { in.t.BP.SetCapacityFrac(1 - clampFrac(m)) },
			clear: func() { in.t.BP.SetCapacityFrac(1) },
		}
	}
	if in.t.Grants != nil {
		acts["grant-starve"] = axisAction{
			apply: func(m float64) {
				in.t.Grants.SetFaultReserve(int64(clampFrac(m) * float64(in.t.Grants.WorkspaceBytes())))
			},
			clear: func() { in.t.Grants.SetFaultReserve(0) },
		}
	}
	if in.t.CPUs != nil {
		var saved []int
		acts["cpuset-shrink"] = axisAction{
			apply: func(m float64) {
				saved = append(saved[:0], in.t.CPUs.Allowed()...)
				n := int(float64(len(saved)) * (1 - clampFrac(m)))
				if n < 1 {
					n = 1
				}
				in.t.CPUs.AllowN(n)
			},
			clear: func() {
				if len(saved) > 0 {
					in.t.CPUs.Allow(saved)
				}
			},
		}
	}
	if in.t.Repl != nil {
		acts["repl-link-stall"] = axisAction{
			apply: func(float64) { in.t.Repl.SetLinkDown(true) },
			clear: func() { in.t.Repl.SetLinkDown(false) },
		}
		acts["replica-slow"] = axisAction{
			apply: func(m float64) { in.t.Repl.SetReplicaFlushPenalty(m) },
			clear: func() { in.t.Repl.SetReplicaFlushPenalty(0) },
		}
	}
	if in.t.Net != nil {
		acts["net-partition"] = axisAction{
			apply: func(m float64) { in.t.Net.SetPartition(partitionMode(m)) },
			clear: func() { in.t.Net.SetPartition(net.PartitionNone) },
		}
		acts["net-loss"] = axisAction{
			apply: func(m float64) { in.t.Net.SetLossProb(m) },
			clear: func() { in.t.Net.SetLossProb(0) },
		}
		acts["net-degrade"] = axisAction{
			apply: func(m float64) { in.t.Net.SetDegrade(m) },
			clear: func() { in.t.Net.SetDegrade(1) },
		}
		acts["conn-reset"] = axisAction{
			apply: func(m float64) {
				if m <= 0 {
					m = 1
				}
				in.t.Net.ResetConns(m)
			},
			clear: func() {},
		}
	}
	return acts
}

// partitionMode maps an event magnitude to a partition direction.
func partitionMode(m float64) net.PartitionMode {
	switch int(m) {
	case 2:
		return net.PartitionToServer
	case 3:
		return net.PartitionToClient
	default:
		return net.PartitionBoth
	}
}

// Start begins injection. A disabled config spawns nothing, preserving
// baseline determinism.
func (in *Injector) Start() {
	if in.cfg.Enabled() {
		in.spawnWalkers(in.buildActions())
	}
}

// spawnWalkers spawns one walker per enabled Poisson axis, then one per
// scheduled axis in axis-name order (proc spawn order is part of the
// sim's determinism). An axis with no entry in acts — its target is
// absent — has nothing to act on and is skipped.
func (in *Injector) spawnWalkers(acts map[string]axisAction) {
	for i, ax := range in.axes {
		act, ok := acts[ax.name]
		rate := ax.rate * in.cfg.Intensity
		if !ok || rate <= 0 {
			continue
		}
		// Exponential gaps between events, exponential event durations,
		// both from the axis's private stream, gap first.
		rng, meanGapNs := in.axisRNG[i], 1e9/rate
		in.walk("fault-"+ax.name, act, func(now sim.Time) (Event, bool) {
			at := sim.Duration(now) + sim.Duration(rng.Exp(meanGapNs))
			return Event{At: at, Dur: sim.Duration(rng.Exp(ax.durNs)), Magnitude: ax.magnitude}, true
		})
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
			continue
		}
		evs := byAxis[name]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		in.walk("fault-sched-"+name, act, func(sim.Time) (Event, bool) {
			if len(evs) == 0 {
				return Event{}, false
			}
			ev := evs[0]
			evs = evs[1:]
			return ev, true
		})
	}
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// walk spawns the one event loop every axis runs: take the next event
// from next (called with the current time), sleep until it starts, apply
// its magnitude, hold it for its duration, clear. clear always runs after
// apply, including on shutdown mid-event.
func (in *Injector) walk(procName string, act axisAction, next func(now sim.Time) (Event, bool)) {
	in.sm.Spawn(procName, func(p *sim.Proc) {
		for {
			ev, ok := next(p.Now())
			if !ok || !in.sleep(p, ev.At-sim.Duration(p.Now())) {
				return
			}
			in.t.Ctr.FaultsInjected++
			act.apply(ev.Magnitude)
			ok = in.sleep(p, ev.Dur)
			act.clear()
			if !ok {
				return
			}
		}
	})
}

// sleep sleeps for d in hops of at most 5 s, checking for Stop between
// them, so a stopped injector clears its axis and exits within a hop
// rather than at the end of a long event. It reports false once stopped.
func (in *Injector) sleep(p *sim.Proc, d sim.Duration) bool {
	const hop = 5 * sim.Second
	for d > 0 {
		if in.stopped {
			return false
		}
		h := d
		if h > hop {
			h = hop
		}
		p.Sleep(h)
		d -= h
	}
	return !in.stopped
}
