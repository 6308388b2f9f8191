package sim

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Self-profiling: host wall-clock phase timers around the simulator's own
// hot paths and around booting a harness cell. The process-wide totals are
// atomic so parallel sweeps aggregate into one report; simulation code
// never reads them, so wall time flows out, never in.
//
// A Sim counts every entry of the per-call phases (sim.loop, hw.exec,
// hw.charge, cache.llc), flushed when Run returns. Only an entry whose count
// is a multiple of profEvery reads the host clock; its wall counts profEvery times.
const profEvery = 64 // a power of two

var profEnabled atomic.Bool

// EnableProfiling arms the simulator's self-profiling phase timers,
// calibrating the cost of a clock read first.
func EnableProfiling() {
	profClock.Store(int64(calibrateProfClock()))
	profEnabled.Store(true)
}

// DisableProfiling disarms the phase timers (accumulated totals remain;
// take ProfSnapshot deltas to scope a measurement). Benchmarks use this
// so a profiled run does not tax the rest of the suite.
func DisableProfiling() { profEnabled.Store(false) }

// Profiling reports whether phase timers are armed. A Sim reads it once
// per Run, so a disarmed per-call phase costs one branch on a Sim field.
func Profiling() bool { return profEnabled.Load() }

// ProfPhase accumulates wall time and entry counts for one simulator
// phase. Phases are fixed package-level variables; package hw times the
// ones it owns with Sim.ProfStart and Sim.ProfStop.
type ProfPhase struct {
	Name   string
	slot   int // a per-call phase's index in perCall and Sim.tally, else -1
	wallNs atomic.Int64
	calls  atomic.Int64
}

// Add records one timed entry into the phase.
func (ph *ProfPhase) Add(wall time.Duration, calls int64) {
	ph.wallNs.Add(int64(wall))
	ph.calls.Add(calls)
}

// The simulator's profiled phases, in name order.
var (
	ProfCache  = &ProfPhase{Name: "cache.llc", slot: 0} // LLC set-sampled access simulation
	ProfCharge = &ProfPhase{Name: "hw.charge", slot: 1} // miss charging: DRAM/QPI fluid reservations
	ProfHWExec = &ProfPhase{Name: "hw.exec", slot: 2}   // scheduler bookkeeping in Machine.Exec (excl. parked time)
	ProfSetup  = &ProfPhase{Name: "setup", slot: -1}    // booting a harness cell: dataset build, AttachDB, WarmBufferPool (and repl.New); entries = cells booted
	ProfLoop   = &ProfPhase{Name: "sim.loop", slot: 3}  // event dispatch (ready-FIFO and heap ops, stale-wakeup filtering); entries = Run calls
	ProfProc   = &ProfPhase{Name: "sim.proc", slot: -1} // the rest of Run's wall: process execution, coroutine switches included; entries = events delivered
	profPhases = [...]*ProfPhase{ProfCache, ProfCharge, ProfHWExec, ProfSetup, ProfLoop, ProfProc}
	perCall    = [...]*ProfPhase{ProfCache, ProfCharge, ProfHWExec, ProfLoop}
)

type profTally struct {
	n, flushed int64         // entries so far, and at the last flush
	wall       time.Duration // estimated wall since the last flush
}

// ProfMark is the host clock when a timed entry began, 0 for an untimed one.
type ProfMark int64

var profEpoch = time.Now()

func profNow() ProfMark { return ProfMark(time.Since(profEpoch)) + 1 } // never the untimed 0

// profClock is the cost of one profNow, calibrated when profiling is
// armed. A timed stretch spans one read of its own, the tail of the read
// that opens it and the head of the one that closes it, and profStop
// takes it back out.
var profClock atomic.Int64

// calibrateProfClock returns the least gap between back-to-back profNow
// reads over a burst of 1 000: one read with no work between.
func calibrateProfClock() ProfMark {
	prev, least := profNow(), ProfMark(math.MaxInt64)
	for range 1000 {
		t := profNow()
		least, prev = min(least, t-prev), t
	}
	return least
}

// ProfStart opens an entry of the per-call phase ph if the Run in progress
// is profiled, and returns its mark for ProfStop. Only the guard inlines.
func (s *Sim) ProfStart(ph *ProfPhase) ProfMark {
	if !s.prof {
		return 0
	}
	return s.profStart(ph)
}

func (s *Sim) profStart(ph *ProfPhase) ProfMark {
	t := &s.tally[ph.slot]
	if t.n++; t.n%profEvery != 0 {
		return 0
	}
	return profNow()
}

// ProfStop closes ph's entry marked m, a timed one's wall, less one clock
// read and at least 0, counting profEvery times. Only the guard inlines.
func (s *Sim) ProfStop(ph *ProfPhase, m ProfMark) {
	if m != 0 {
		s.profStop(ph, m)
	}
}

//go:noinline
func (s *Sim) profStop(ph *ProfPhase, m ProfMark) {
	d := max(profNow()-m-ProfMark(profClock.Load()), 0)
	s.tally[ph.slot].wall += time.Duration(profEvery * d)
}

// Restart marks a further stretch of the same entry, timed if the entry is.
func (m ProfMark) Restart() ProfMark {
	if m == 0 {
		return 0
	}
	return profNow()
}

// profSimNs is the simulated time profiled Runs covered, the report's denominator.
var profSimNs atomic.Int64

// profFlush adds the Run begun at host mark t0 and sim time start to the
// phases, one atomic add each; sim.proc is the Run's wall minus sim.loop.
func (s *Sim) profFlush(t0 ProfMark, start Time) {
	runWall := time.Duration(profNow() - t0)
	for i, ph := range perCall {
		t := &s.tally[i]
		wall, n := t.wall, t.n-t.flushed
		t.wall, t.flushed = 0, t.n
		if ph == ProfLoop {
			// Every dispatch but the last, which found nothing to run, delivered an event.
			wall = min(wall, runWall)
			ProfProc.Add(runWall-wall, n-1)
			n = 1
		}
		ph.Add(wall, n)
	}
	profSimNs.Add(int64(s.now - start))
}

// ProfStat is one phase's aggregated numbers.
type ProfStat struct {
	Name   string
	WallNs int64
	Calls  int64
}

// ProfSnapshot returns every phase's totals, sorted by name.
func ProfSnapshot() []ProfStat {
	out := make([]ProfStat, len(profPhases))
	for i, ph := range profPhases {
		out[i] = ProfStat{Name: ph.Name, WallNs: ph.wallNs.Load(), Calls: ph.calls.Load()}
	}
	return out
}

// ProfReport renders the per-subsystem overhead table: wall-ms spent in
// each simulator phase, entries, and wall-ms per simulated ms.
func ProfReport() string {
	simMs := float64(profSimNs.Load()) / 1e6
	var b strings.Builder
	fmt.Fprintf(&b, "-- simulator self-profile: %.0f sim-ms covered, per-call walls timed on 1 entry in %d --\n", simMs, profEvery)
	fmt.Fprintf(&b, "%-12s %12s %12s %16s\n", "phase", "wall-ms", "entries", "wall-ms/sim-ms")
	for _, s := range ProfSnapshot() {
		wallMs, perSimMs := float64(s.WallNs)/1e6, 0.0
		if simMs > 0 {
			perSimMs = wallMs / simMs
		}
		fmt.Fprintf(&b, "%-12s %12.1f %12d %16.4f\n", s.Name, wallMs, s.Calls, perSimMs)
	}
	return b.String()
}
