package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Self-profiling: host wall-clock phase timers around the simulator's own
// hot paths (event-loop dispatch, process execution, hardware charging,
// cache simulation) and around booting a harness cell. The counters are process-global and atomic so
// parallel sweeps aggregate into one report; they are written only when
// profiling is enabled and are never read by simulation code, so they
// cannot perturb simulated results — wall time flows out, never in.

var profEnabled atomic.Bool

// EnableProfiling arms the simulator's self-profiling phase timers.
func EnableProfiling() { profEnabled.Store(true) }

// DisableProfiling disarms the phase timers (accumulated totals remain;
// take ProfSnapshot deltas to scope a measurement). Benchmarks use this
// so a profiled run does not tax the rest of the suite.
func DisableProfiling() { profEnabled.Store(false) }

// Profiling reports whether phase timers are armed. Instrumented code
// guards on this so the disarmed cost is one atomic load.
func Profiling() bool { return profEnabled.Load() }

// ProfPhase accumulates wall time and entry counts for one simulator
// phase. Phases are fixed package-level variables; subsystem packages
// (hw, and through it cache) add to the ones they own.
type ProfPhase struct {
	Name   string
	wallNs atomic.Int64
	calls  atomic.Int64
}

// Add records one timed entry into the phase.
func (ph *ProfPhase) Add(wall time.Duration, calls int64) {
	ph.wallNs.Add(int64(wall))
	ph.calls.Add(calls)
}

// The simulator's profiled phases.
var (
	ProfLoop   = &ProfPhase{Name: "sim.loop"}  // event dispatch in the yielding proc (ready-FIFO and heap ops, stale-wakeup filtering); entries = Run calls
	ProfProc   = &ProfPhase{Name: "sim.proc"}  // process execution from dispatch to the next park, the coroutine switches through Run included; entries = events delivered
	ProfHWExec = &ProfPhase{Name: "hw.exec"}   // scheduler bookkeeping in Machine.Exec (excl. parked time)
	ProfCharge = &ProfPhase{Name: "hw.charge"} // miss charging: DRAM/QPI fluid reservations
	ProfCache  = &ProfPhase{Name: "cache.llc"} // LLC set-sampled access simulation
	ProfSetup  = &ProfPhase{Name: "setup"}     // booting a harness cell: dataset build, AttachDB, WarmBufferPool (and repl.New); entries = cells booted
)

// profSimNs accumulates simulated time elapsed while profiling, the
// denominator of the wall-ms-per-sim-ms overhead ratios.
var profSimNs atomic.Int64

func profAddSim(d Duration) {
	if d > 0 {
		profSimNs.Add(int64(d))
	}
}

// ProfStat is one phase's aggregated numbers.
type ProfStat struct {
	Name   string
	WallNs int64
	Calls  int64
	SimNs  int64 // shared denominator: simulated ns covered by profiling
}

// WallPerSimMs returns host milliseconds spent in the phase per simulated
// millisecond — the overhead report's headline ratio.
func (s ProfStat) WallPerSimMs() float64 {
	if s.SimNs <= 0 {
		return 0
	}
	return float64(s.WallNs) / float64(s.SimNs)
}

// ProfSnapshot returns every phase's totals, sorted by name.
func ProfSnapshot() []ProfStat {
	simNs := profSimNs.Load()
	phases := []*ProfPhase{ProfLoop, ProfProc, ProfHWExec, ProfCharge, ProfCache, ProfSetup}
	out := make([]ProfStat, 0, len(phases))
	for _, ph := range phases {
		out = append(out, ProfStat{Name: ph.Name, WallNs: ph.wallNs.Load(), Calls: ph.calls.Load(), SimNs: simNs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProfReport renders the per-subsystem overhead table: wall-ms spent in
// each simulator phase, entries, and wall-ms per simulated ms.
func ProfReport() string {
	stats := ProfSnapshot()
	var b strings.Builder
	var simNs int64
	if len(stats) > 0 {
		simNs = stats[0].SimNs
	}
	fmt.Fprintf(&b, "-- simulator self-profile: %.0f sim-ms covered --\n", float64(simNs)/1e6)
	fmt.Fprintf(&b, "%-12s %12s %12s %16s\n", "phase", "wall-ms", "entries", "wall-ms/sim-ms")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-12s %12.1f %12d %16.4f\n", s.Name, float64(s.WallNs)/1e6, s.Calls, s.WallPerSimMs())
	}
	return b.String()
}
