package harness

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sim"
)

// RecoveryCkptIntervals is the default checkpoint-cadence axis of the
// MTTR sweep: from aggressive fuzzy checkpoints to the pool default.
var RecoveryCkptIntervals = []sim.Duration{
	250 * sim.Millisecond, 500 * sim.Millisecond, sim.Second, 2 * sim.Second,
}

// RecoveryBandwidths is the default storage-bandwidth axis: the blkio
// read+write limit (MB/s) recovery I/O is subject to. Two settings are
// the minimum for the MTTR-vs-bandwidth comparison.
var RecoveryBandwidths = []float64{50, 200}

// RecoveryRun is one crash + ARIES-restart execution with its
// verification results.
type RecoveryRun struct {
	Crashed bool
	Commits int64 // commits before the crash

	Report engine.RecoveryReport // final recovery pass
	Passes int                   // passes until a pass ran uninterrupted

	Digest       uint64 // logical state digest after recovery
	DigestRerun  uint64 // digest after a deliberate second recovery
	InvariantErr string // empty when the recovered image checks out
}

// Idempotent reports whether the deliberate re-recovery left the logical
// state untouched.
func (r RecoveryRun) Idempotent() bool { return r.Digest == r.DigestRerun }

// MTTRMs is the final pass's recovery elapsed, the mean-time-to-recover
// sample, in milliseconds.
func (r RecoveryRun) MTTRMs() float64 { return r.Report.Elapsed.Seconds() * 1e3 }

// runRecovery drives a cell booted with a crash plan: the CRUD mix runs
// into the configured crash, the server restarts with ARIES recovery
// (re-entering recovery when a during-undo crash interrupts it), and the
// recovered image is verified. With rerun set it recovers a second time
// after success to demonstrate idempotence. ASDB is the write-heaviest
// mix (40% updates/inserts/deletes), so it exercises every record type.
func (c *cell) runRecovery(opt Options, rerun bool) RecoveryRun {
	c.start()
	until := driverHorizon(opt)
	c.drive(opt, until)
	srv, sm := c.srv, c.srv.Sim
	sm.Run(until + sim.Time(maxWait))
	// Every Recover pass restarts the log writer: once the last result is
	// read, stop the server and let it unwind, or it outlives the cell
	// parked, pinning its dataset.
	defer func() {
		srv.Stop()
		sm.Run(sim.Forever)
	}()

	out := RecoveryRun{Crashed: srv.Crashed(), Commits: srv.Ctr.TxnCommits}
	if !out.Crashed {
		out.InvariantErr = "crash point never fired"
		return out
	}
	rep := srv.Recover()
	sm.Run(sim.Forever)
	out.Passes = 1
	for rep.Interrupted && out.Passes < 4 {
		rep = srv.Recover()
		sm.Run(sim.Forever)
		out.Passes++
	}
	out.Report = *rep
	if !rep.Done {
		out.InvariantErr = "recovery did not complete"
		return out
	}
	if err := srv.CheckRecoveryInvariants(); err != nil {
		out.InvariantErr = err.Error()
	}
	out.Digest = srv.StateDigest()
	out.DigestRerun = out.Digest
	if rerun {
		srv.Recover()
		sm.Run(sim.Forever)
		out.DigestRerun = srv.StateDigest()
		if err := srv.CheckRecoveryInvariants(); err != nil && out.InvariantErr == "" {
			out.InvariantErr = "after re-recovery: " + err.Error()
		}
	}
	return out
}

// RecoveryPoint is one (storage bandwidth, checkpoint interval) cell of
// the MTTR sweep and the recovery it ran.
type RecoveryPoint struct {
	BandwidthMBps float64
	CkptInterval  sim.Duration
	Run           RecoveryRun
}

// RecoveryResult is the MTTR response surface: one curve of MTTR versus
// checkpoint interval per storage-bandwidth setting.
type RecoveryResult struct {
	SF     int
	Points []RecoveryPoint
}

// Recovery sweeps crash recovery across checkpoint intervals and storage
// bandwidths: every cell runs the same workload to the same timed crash,
// so MTTR differences isolate the knobs. Cells boot isolated
// simulations, so results are bit-identical at any opt.Parallel.
func Recovery(sf int, opt Options, intervals []sim.Duration, bandwidths []float64) RecoveryResult {
	var points []RecoveryPoint
	for _, bw := range bandwidths {
		for _, iv := range intervals {
			points = append(points, RecoveryPoint{BandwidthMBps: bw, CkptInterval: iv})
		}
	}
	crashAt := opt.Warmup + opt.Measure
	runs := Sweep(opt.Parallel, len(points), func(i int) RecoveryRun {
		p := points[i]
		k := Knobs{ReadLimitMBps: p.BandwidthMBps, WriteLimitMBps: p.BandwidthMBps}
		ro := engine.RecoveryOptions{
			CkptInterval:  p.CkptInterval,
			MaxFlushBytes: 4 << 10, // small batches leave partially flushed lumps: undo work
			Crash:         fault.CrashPlan{Point: fault.CrashAtTime, At: crashAt},
		}
		return bootASDB(sf, opt, k, &ro, nil).runRecovery(opt, false)
	}, opt.Progress)
	for i, r := range runs {
		points[i].Run = r
	}
	return RecoveryResult{SF: sf, Points: points}
}

// String renders the MTTR surface as an aligned table.
func (r RecoveryResult) String() string {
	s := fmt.Sprintf("recovery asdb sf=%d (MTTR vs checkpoint interval x storage bandwidth)\n", r.SF)
	s += fmt.Sprintf("%8s %8s %9s %9s %8s %8s %6s %7s %7s %8s %s\n",
		"bw-MB/s", "ckpt-ms", "mttr-ms", "log-KB", "redo-pg", "undo", "clrs",
		"winners", "losers", "lost-txn", "err")
	for _, p := range r.Points {
		rep := p.Run.Report
		s += fmt.Sprintf("%8.0f %8.0f %9.2f %9.1f %8d %8d %6d %7d %7d %8d %s\n",
			p.BandwidthMBps, p.CkptInterval.Seconds()*1e3, p.Run.MTTRMs(), float64(rep.LogScanned)/1024,
			rep.RedoPages, rep.UndoRecords, rep.CLRs, rep.Winners, rep.Losers, rep.LostTxns, p.Run.InvariantErr)
	}
	return s
}

// Err returns the first cell error, nil when every cell verified.
func (r RecoveryResult) Err() error {
	for _, p := range r.Points {
		if p.Run.InvariantErr != "" {
			return fmt.Errorf("recovery bw=%.0f ckpt=%v: %s", p.BandwidthMBps, p.CkptInterval, p.Run.InvariantErr)
		}
	}
	return nil
}

// CrashCell is one seeded crash point's verified recovery.
type CrashCell struct {
	Plan fault.CrashPlan
	Run  RecoveryRun
}

// CrashMatrixResult is the crash-point grid.
type CrashMatrixResult struct {
	SF    int
	Cells []CrashCell
}

// CrashMatrixPlans returns the default seeded crash grid: two samples of
// each crash point. The during-undo plans need a timed initial crash to
// enter recovery, placed at the end of the measurement window.
func CrashMatrixPlans(opt Options) []fault.CrashPlan {
	at := opt.Warmup + opt.Measure
	return []fault.CrashPlan{
		{Point: fault.CrashMidFlush, Nth: 100},
		{Point: fault.CrashMidFlush, Nth: 800},
		{Point: fault.CrashAppendGap, Nth: 200},
		{Point: fault.CrashAppendGap, Nth: 1600},
		{Point: fault.CrashMidCheckpoint, Nth: 1},
		{Point: fault.CrashMidCheckpoint, Nth: 3},
		{Point: fault.CrashDuringUndo, Nth: 1, At: at},
		{Point: fault.CrashDuringUndo, Nth: 2, At: at},
	}
}

// CrashMatrix runs the seeded crash-point grid: each cell crashes the
// workload at its plan's point, recovers (twice when the plan crashes
// recovery itself), checks the recovery invariants, and re-recovers to
// verify idempotence. Checkpoints run every 250 ms so mid-checkpoint
// plans fire within short windows.
func CrashMatrix(sf int, opt Options, plans []fault.CrashPlan) CrashMatrixResult {
	runs := Sweep(opt.Parallel, len(plans), func(i int) RecoveryRun {
		// A flush cap smaller than one commit lump (~0.5 KB here) puts the
		// durable boundary inside a lump most of the time, so the crash
		// leaves partially flushed transactions — the ARIES-loser case the
		// undo path (and the during-undo crash point) exists for. The write
		// throttle keeps a flush backlog at the crash instant.
		ro := engine.RecoveryOptions{
			CkptInterval:  250 * sim.Millisecond,
			MaxFlushBytes: 256,
			Crash:         plans[i],
		}
		return bootASDB(sf, opt, Knobs{WriteLimitMBps: 25}, &ro, nil).runRecovery(opt, true)
	}, opt.Progress)
	out := CrashMatrixResult{SF: sf}
	for i, r := range runs {
		out.Cells = append(out.Cells, CrashCell{Plan: plans[i], Run: r})
	}
	return out
}

// String renders the matrix as an aligned table.
func (r CrashMatrixResult) String() string {
	s := fmt.Sprintf("crash matrix asdb sf=%d\n", r.SF)
	s += fmt.Sprintf("%-15s %4s %10s %8s %8s %7s %7s %8s %6s %6s %6s %5s %s\n",
		"crash-point", "nth", "crash-lsn", "lost-rec", "lost-txn", "winners",
		"losers", "redo-pg", "undo", "clrs", "passes", "idem", "invariants")
	for _, c := range r.Cells {
		verdict := "ok"
		if c.Run.InvariantErr != "" {
			verdict = c.Run.InvariantErr
		}
		idem := "yes"
		if !c.Run.Idempotent() {
			idem = "NO"
		}
		rep := c.Run.Report
		s += fmt.Sprintf("%-15s %4d %10d %8d %8d %7d %7d %8d %6d %6d %6d %5s %s\n",
			c.Plan.Point, c.Plan.Nth, rep.CrashLSN, rep.LostRecords, rep.LostTxns,
			rep.Winners, rep.Losers, rep.RedoPages, rep.UndoRecords, rep.CLRs,
			c.Run.Passes, idem, verdict)
	}
	return s
}

// Err returns the first failed cell (invariant violation or
// non-idempotent re-recovery), nil when the whole grid verified.
func (r CrashMatrixResult) Err() error {
	for _, c := range r.Cells {
		if c.Run.InvariantErr != "" {
			return fmt.Errorf("crash %v nth=%d: %s", c.Plan.Point, c.Plan.Nth, c.Run.InvariantErr)
		}
		if !c.Run.Idempotent() {
			return fmt.Errorf("crash %v nth=%d: re-recovery changed state digest", c.Plan.Point, c.Plan.Nth)
		}
	}
	return nil
}
