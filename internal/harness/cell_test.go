package harness

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/repl"
	"repro/internal/sim"
)

// TestSettleLeavesNothingRunning holds teardown to the lifecycle's
// contract on the three shapes an ops cell ends in: a single node, a
// replicated cell with the primary up, and one whose primary crashed and
// failed over. Each must settle with an empty verdict, every node stopped
// and no live proc. A crashed primary must not be cleanly stopped (a later
// Crash after Recover has to land), and the failover driver must never run
// when no crash fired. Telemetry stays off: Crash does not stop the
// registry's sampler, which then outlives the cell (ROADMAP item 6).
func TestSettleLeavesNothingRunning(t *testing.T) {
	opt := TestOptions()
	opt.Density, opt.Warmup, opt.Measure = 30, sim.Second/2, sim.Second
	end := sim.Time(opt.Warmup + opt.Measure)
	rcfg := repl.Config{Mode: repl.ModeQuorum, Quorum: 1, Replicas: 2}
	crash := engine.RecoveryOptions{Crash: fault.CrashPlan{Point: fault.CrashAtTime, At: opt.Warmup + opt.Measure/2}}
	for _, tc := range []struct {
		name  string
		ro    *engine.RecoveryOptions
		rcfg  *repl.Config
		crash bool
	}{
		{"single", nil, nil, false},
		{"replicated", &engine.RecoveryOptions{}, &rcfg, false},
		{"failed-over", &crash, &rcfg, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := bootASDB(1000, opt, Knobs{}, tc.ro, tc.rcfg)
			c.start()
			c.drive(opt, end)
			fired := false
			c.onCrash("test-failover", end, func(p *sim.Proc) {
				fired = true
				c.cl.Failover(p)
			})
			c.srv.Sim.Run(end)
			if verdict := settle(c.srv, c.cl); verdict != "" {
				t.Fatalf("verdict %q", verdict)
			}
			if fired != tc.crash || c.srv.Crashed() != tc.crash {
				t.Fatalf("failover driver ran=%v, primary crashed=%v, want both %v", fired, c.srv.Crashed(), tc.crash)
			}
			if c.srv.Ctr.TxnCommits == 0 {
				t.Fatal("the cell committed nothing: teardown of an idle simulation proves little")
			}
			if !c.srv.Stopped() {
				t.Error("primary still running")
			}
			if c.cl != nil {
				for i, s := range c.cl.Standbys {
					if !s.Srv.Stopped() {
						t.Errorf("standby %d still running", i)
					}
				}
			}
			if n := c.srv.Sim.Live(); n != 0 {
				t.Errorf("%d procs still live after settle", n)
			}
			if tc.crash {
				c.srv.Recover()
				c.srv.Sim.Run(c.srv.Sim.Now() + sim.Time(drainWindow))
				c.srv.Crash()
				if c.srv.Ctr.Crashes != 2 {
					t.Errorf("%d crashes recorded, want 2: settle cleanly stopped a crashed primary", c.srv.Ctr.Crashes)
				}
			}
		})
	}
}

// TestRecoveryCellsLeaveNothingRunning holds the recovery cells to the
// same end state: a crash-matrix cell (two Recover passes plus the
// idempotence re-run, each of which restarts the log writer) and an MTTR
// cell, with telemetry off and armed (a crash leaves the sampler running),
// must end with no live proc and no goroutine the cell started. Procs run
// on carriers from the kernel's process-wide free list, which park idle
// by design, so the same cell runs once first to fill it: a proc the
// second run leaks keeps its carrier, and the run after it needs a new one.
func TestRecoveryCellsLeaveNothingRunning(t *testing.T) {
	opt := TestOptions()
	opt.Density, opt.Warmup, opt.Measure = 30, sim.Second/2, sim.Second
	at := opt.Warmup + opt.Measure
	for _, tc := range []struct {
		name  string
		k     Knobs
		ro    engine.RecoveryOptions
		rerun bool
	}{
		{"crash-matrix", Knobs{WriteLimitMBps: 25}, engine.RecoveryOptions{
			CkptInterval: 250 * sim.Millisecond, MaxFlushBytes: 256,
			Crash: fault.CrashPlan{Point: fault.CrashDuringUndo, Nth: 1, At: at},
		}, true},
		{"mttr", Knobs{ReadLimitMBps: 50, WriteLimitMBps: 50}, engine.RecoveryOptions{
			CkptInterval: 250 * sim.Millisecond, MaxFlushBytes: 4 << 10,
			Crash: fault.CrashPlan{Point: fault.CrashAtTime, At: at},
		}, false},
	} {
		for _, tel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/telemetry=%v", tc.name, tel), func(t *testing.T) {
				opt := opt
				opt.Telemetry = tel
				cell := func() {
					c := bootASDB(1000, opt, tc.k, &tc.ro, nil)
					run := c.runRecovery(opt, tc.rerun)
					if run.InvariantErr != "" || !run.Report.Done || run.Report.Winners == 0 {
						t.Fatalf("recovery did not verify: %+v", run)
					}
					if tc.rerun && run.Passes < 2 {
						t.Fatalf("%d recovery passes, want the during-undo crash to force a second", run.Passes)
					}
					if n := c.srv.Sim.Live(); n != 0 {
						t.Errorf("%d procs still live", n)
					}
				}
				cell()
				before := runtime.NumGoroutine()
				cell()
				if leaked := runtime.NumGoroutine() - before; leaked > 0 {
					t.Errorf("%d goroutines outlive the cell", leaked)
				}
			})
		}
	}
}
