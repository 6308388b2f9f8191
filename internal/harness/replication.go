package harness

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ReplModes is the default commit-mode axis of the replication sweep.
var ReplModes = []repl.Mode{repl.ModeAsync, repl.ModeQuorum, repl.ModeSync}

// ReplReplicaCounts is the default replica-count axis.
var ReplReplicaCounts = []int{1, 2}

// ReplicationPoint is one (commit mode, storage bandwidth, replica
// count) cell of the replication sweep.
type ReplicationPoint struct {
	Mode          repl.Mode
	Replicas      int
	BandwidthMBps float64

	TPS         float64
	CommitAckMs float64 // mean sync/quorum ack wait per commit
	MaxLagKB    float64 // worst sampled replica lag
	ShippedMB   float64
	AppliedTxns int64
	Unacked     int64 // commits durable locally but never acknowledged

	// Telemetry is the primary's registry snapshot (engine series plus the
	// cluster's repl series) and CommitSpans the traced commits' cross-node
	// span trees; both nil/empty unless Options.Telemetry armed the cell.
	Telemetry   *telemetry.Snapshot
	CommitSpans []*trace.Trace

	Err string // digest mismatch / quiesce failure
}

// ReplicationResult is the commit-mode response surface.
type ReplicationResult struct {
	SF     int
	Points []ReplicationPoint
}

// Replication sweeps the ASDB write mix across commit modes, storage
// bandwidths, and replica counts: the commit path crosses the simulated
// link and the replica WAL devices, so sync/quorum latency responds to
// the same storage throttle the paper's sensitivity sweeps use. Every
// cell verifies primary/standby digest equality at quiesce. Nil axes
// take the defaults (ReplModes, RecoveryBandwidths, ReplReplicaCounts).
// Cells boot isolated simulations: results are bit-identical at any
// opt.Parallel.
func Replication(sf int, opt Options, modes []repl.Mode, bandwidths []float64, replicas []int) ReplicationResult {
	if modes == nil {
		modes = ReplModes
	}
	if bandwidths == nil {
		bandwidths = RecoveryBandwidths
	}
	if replicas == nil {
		replicas = ReplReplicaCounts
	}
	type setting struct {
		mode repl.Mode
		bw   float64
		n    int
	}
	var settings []setting
	for _, n := range replicas {
		for _, bw := range bandwidths {
			for _, m := range modes {
				settings = append(settings, setting{m, bw, n})
			}
		}
	}
	points := Sweep(opt.Parallel, len(settings), func(i int) ReplicationPoint {
		st := settings[i]
		k := Knobs{ReadLimitMBps: st.bw, WriteLimitMBps: st.bw}
		rcfg := repl.Config{
			Mode: st.mode, Quorum: (st.n + 1) / 2, Replicas: st.n,
			TraceCommits: opt.Telemetry,
		}
		c := bootASDB(sf, opt, k, &engine.RecoveryOptions{}, &rcfg)
		c.start()
		srv, cl := c.srv, c.cl
		end := sim.Time(opt.Warmup + opt.Measure)
		c.drive(opt, end)
		srv.Sim.Run(sim.Time(opt.Warmup))
		before := *srv.Ctr
		srv.Sim.Run(end)
		delta := srv.Ctr.Sub(before)
		errStr := settle(srv, cl)

		secs := opt.Measure.Seconds()
		p := ReplicationPoint{
			Mode: st.mode, Replicas: st.n, BandwidthMBps: st.bw,
			TPS:       float64(delta.TxnCommits) / secs,
			MaxLagKB:  float64(cl.MaxLagBytes()) / 1024,
			ShippedMB: float64(srv.Ctr.ReplShippedBytes) / 1e6,
			Unacked:   srv.Ctr.ReplUnackedCommits,
			Err:       errStr,
		}
		for _, s := range cl.Standbys {
			p.AppliedTxns += s.Srv.Ctr.ReplAppliedTxns
		}
		if delta.TxnCommits > 0 {
			p.CommitAckMs = float64(delta.WaitNs[metrics.WaitReplAck]) / float64(delta.TxnCommits) / 1e6
		}
		p.Telemetry = srv.Tel.Snapshot()
		p.CommitSpans = cl.CommitTraces()
		return p
	}, opt.Progress)
	return ReplicationResult{SF: sf, Points: points}
}

// String renders the sweep as an aligned table.
func (r ReplicationResult) String() string {
	s := fmt.Sprintf("replication asdb sf=%d (commit mode x storage bandwidth x replicas)\n", r.SF)
	s += fmt.Sprintf("%-7s %4s %8s %9s %10s %10s %10s %9s %8s %s\n",
		"mode", "repl", "bw-MB/s", "tps", "ack-ms", "maxlag-KB", "shipped-MB", "applied", "unacked", "err")
	for _, p := range r.Points {
		s += fmt.Sprintf("%-7s %4d %8.0f %9.1f %10.3f %10.1f %10.2f %9d %8d %s\n",
			p.Mode, p.Replicas, p.BandwidthMBps, p.TPS, p.CommitAckMs,
			p.MaxLagKB, p.ShippedMB, p.AppliedTxns, p.Unacked, p.Err)
	}
	return s
}

// Err returns the first cell error, nil when every cell verified.
func (r ReplicationResult) Err() error {
	for _, p := range r.Points {
		if p.Err != "" {
			return fmt.Errorf("replication mode=%s repl=%d bw=%.0f: %s", p.Mode, p.Replicas, p.BandwidthMBps, p.Err)
		}
	}
	return nil
}

// FailoverCell is one crash → promotion → verification execution,
// with a point-in-time restore verified from the same run's archive.
type FailoverCell struct {
	Mode     repl.Mode
	Replicas int

	Commits  int64
	Failover repl.FailoverReport
	PITR     repl.PITRReport
	Err      string
}

// FailoverResult is the failover/RTO sweep.
type FailoverResult struct {
	SF    int
	Cells []FailoverCell
}

// Failover crashes a replicated primary mid-run at a seeded point,
// promotes the most caught-up standby, and verifies the failover
// invariants: the promoted image equals a pure replay of its durable
// log (committed-durable preserved, uncommitted undone) and no
// acknowledged commit is lost. The same run archives WAL segments and
// marks snapshots; after promotion a point-in-time restore to a
// mid-run commit LSN is verified against an independent replay of the
// primary's durable log prefix. modes nil uses ReplModes.
func Failover(sf int, opt Options, modes []repl.Mode) FailoverResult {
	if modes == nil {
		modes = ReplModes
	}
	crashAt := opt.Warmup + opt.Measure
	cells := Sweep(opt.Parallel, len(modes), func(i int) FailoverCell {
		mode := modes[i]
		out := FailoverCell{Mode: mode, Replicas: 2}
		ro := engine.RecoveryOptions{
			MaxFlushBytes: 4 << 10,
			Crash:         fault.CrashPlan{Point: fault.CrashAtTime, At: crashAt},
		}
		rcfg := repl.Config{Mode: mode, Quorum: 1, Replicas: 2, Archive: true}
		c := bootASDB(sf, opt, Knobs{WriteLimitMBps: 50}, &ro, &rcfg)
		c.start()
		srv, cl := c.srv, c.cl
		until := driverHorizon(opt)
		c.drive(opt, until)

		var frep *repl.FailoverReport
		var prep *repl.PITRReport
		var pitrErr error
		c.onCrash("failover-driver", until, func(p *sim.Proc) {
			frep = cl.Failover(p)
			if cl.Arch != nil {
				// Restore to the commit nearest the middle of the archived
				// stream, charging restore I/O to the promoted node's device.
				lsn := cl.CommitLSNNear(0.5)
				if lsn > 0 && lsn <= cl.Arch.Horizon() {
					_, prep, pitrErr = cl.Arch.RecoverTo(p, cl.PromotedStandby().Srv.Dev, lsn)
					if pitrErr == nil {
						pitrErr = cl.Arch.VerifyPITR(prep)
					}
				}
			}
		})
		srv.Sim.Run(until)
		settle(srv, cl)

		out.Commits = srv.Ctr.TxnCommits
		if frep == nil {
			out.Err = "primary crash never fired"
			return out
		}
		out.Failover = *frep
		if err := cl.VerifyFailover(frep); err != nil {
			out.Err = err.Error()
			return out
		}
		if pitrErr != nil {
			out.Err = "pitr: " + pitrErr.Error()
			return out
		}
		if prep == nil {
			out.Err = "pitr restore did not run"
			return out
		}
		out.PITR = *prep
		return out
	}, opt.Progress)
	return FailoverResult{SF: sf, Cells: cells}
}

// String renders the sweep as an aligned table.
func (r FailoverResult) String() string {
	s := fmt.Sprintf("failover asdb sf=%d (crash -> promotion -> PITR)\n", r.SF)
	s += fmt.Sprintf("%-7s %4s %8s %8s %10s %10s %6s %9s %7s %9s %9s %s\n",
		"mode", "repl", "commits", "rto-ms", "crash-lsn", "promo-lsn", "acked",
		"lost-ack", "lost", "pitr-lsn", "pitr-txn", "err")
	for _, c := range r.Cells {
		f := c.Failover
		s += fmt.Sprintf("%-7s %4d %8d %8.1f %10d %10d %6d %9d %7d %9d %9d %s\n",
			c.Mode, c.Replicas, c.Commits, float64(f.RTO)/1e6, f.PrimaryLSN, f.PromotedLSN,
			f.AckedCommits, f.LostAckedCommits, f.LostCommits, c.PITR.LandedLSN, c.PITR.Txns, c.Err)
	}
	return s
}

// Err returns the first failed cell, nil when the whole sweep verified.
func (r FailoverResult) Err() error {
	for _, c := range r.Cells {
		if c.Err != "" {
			return fmt.Errorf("failover mode=%s: %s", c.Mode, c.Err)
		}
	}
	return nil
}
