package repl

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
)

// FailoverReport measures one primary crash → standby promotion.
type FailoverReport struct {
	CrashAt    sim.Time
	PromotedAt sim.Time
	RTO        sim.Duration // detection + tail drain + promotion

	// RTO decomposition: RTO == Detect + Replay + Promote.
	Detect  sim.Duration // failure-detection delay
	Replay  sim.Duration // draining/applying the shipped durable tail
	Promote sim.Duration // promotion bookkeeping (picking + clearing state)

	Promoted    int   // promoted standby index
	PrimaryLSN  int64 // primary's durable LSN at the crash
	PromotedLSN int64 // promoted standby's applied (== durable) LSN

	// Commit outcomes across the failover boundary.
	AckedCommits     int64 // commits acknowledged under sync/quorum
	LostAckedCommits int64 // acked commits past the promoted LSN — must be 0
	LostCommits      int64 // primary-durable commits the standby never received
}

func (r *FailoverReport) String() string {
	return fmt.Sprintf("failover: standby %d promoted at LSN %d/%d, RTO %.1fms (detect %.1f + replay %.1f + promote %.1f), acked %d (lost %d), unreplicated commits %d",
		r.Promoted, r.PromotedLSN, r.PrimaryLSN, float64(r.RTO)/1e6,
		float64(r.Detect)/1e6, float64(r.Replay)/1e6, float64(r.Promote)/1e6,
		r.AckedCommits, r.LostAckedCommits, r.LostCommits)
}

// TraceTree renders the failover as a span tree — the RTO decomposed
// into contiguous detect → replay → promote phases — in the same shape
// commit traces and per-operator traces use, so one exporter handles all
// three.
func (r *FailoverReport) TraceTree() *trace.Trace {
	root := &trace.Span{
		Op: "Failover", Name: fmt.Sprintf("standby-%d", r.Promoted),
		Start: r.CrashAt, End: r.PromotedAt,
	}
	t := r.CrashAt
	for _, ph := range []struct {
		name string
		d    sim.Duration
	}{{"Detect", r.Detect}, {"Replay", r.Replay}, {"Promote", r.Promote}} {
		root.Children = append(root.Children, &trace.Span{Op: ph.name, Start: t, End: t + sim.Time(ph.d)})
		t += sim.Time(ph.d)
	}
	return &trace.Trace{Query: "failover", Root: root}
}

// Failover runs promotion after the primary has crashed (Server.Crash,
// typically via a seeded fault.Crasher): charge the failure-detection
// delay, wait for the shippers to drain whatever durable tail the link
// still delivered and for every applier to finish, promote the most
// caught-up standby, and discard its in-flight (uncommitted) pending
// state. RTO is measured from the crash instant to promotion.
func (c *Cluster) Failover(p *sim.Proc) *FailoverReport {
	crashAt := c.crashAt
	if crashAt == 0 {
		crashAt = p.Now()
	}
	p.Sleep(failDetect)
	detectEnd := p.Now()
	for !c.drained() {
		p.Sleep(sim.Millisecond)
	}
	replayEnd := p.Now()
	best := c.mostCaughtUp()
	s := c.Standbys[best]
	// The in-flight transaction dies with the primary: its updates were
	// pending (never applied), so dropping them is the undo.
	s.apply.dropPending()
	c.promoted = best

	rep := &FailoverReport{
		CrashAt:      crashAt,
		PromotedAt:   p.Now(),
		RTO:          sim.Duration(p.Now() - crashAt),
		Detect:       sim.Duration(detectEnd - crashAt),
		Replay:       sim.Duration(replayEnd - detectEnd),
		Promote:      sim.Duration(p.Now() - replayEnd),
		Promoted:     best,
		PrimaryLSN:   c.Primary.Log.FlushedLSN(),
		PromotedLSN:  s.appliedLSN,
		AckedCommits: int64(len(c.ackedLSNs)),
	}
	for _, lsn := range c.ackedLSNs {
		if lsn > s.appliedLSN {
			rep.LostAckedCommits++
		}
	}
	for _, r := range c.Primary.Log.Records() {
		if r.Type == wal.RecCommit && r.LSN > 0 && r.LSN <= rep.PrimaryLSN && r.LSN > s.appliedLSN {
			rep.LostCommits++
		}
	}
	return rep
}

// PromotedStandby returns the promoted standby after Failover (nil before).
func (c *Cluster) PromotedStandby() *Standby {
	if c.promoted < 0 {
		return nil
	}
	return c.Standbys[c.promoted]
}

// drained reports whether the replication pipeline has fully shut down:
// every shipper and applier proc exited with empty inboxes.
func (c *Cluster) drained() bool {
	for _, s := range c.Standbys {
		if !s.shipperDone || !s.applierDone || len(s.inbox) > 0 {
			return false
		}
	}
	return true
}

// VerifyFailover checks the promotion invariants:
//
//   - durability: the promoted image equals an independent pure replay of
//     the standby's own durable log onto a fresh dataset image — every
//     committed-durable transaction the standby received survived, every
//     uncommitted transaction left nothing (its updates never applied);
//   - no acked commit lost: every commit acknowledged to a client under
//     sync/quorum lies within the promoted LSN (the promoted standby is
//     the most caught-up, and acks required durability on at least the
//     quorum).
func (c *Cluster) VerifyFailover(rep *FailoverReport) error {
	if rep.LostAckedCommits != 0 {
		return fmt.Errorf("repl: %d acknowledged commits lost in failover", rep.LostAckedCommits)
	}
	s := c.PromotedStandby()
	if s == nil {
		return fmt.Errorf("repl: no standby promoted")
	}
	if flushed := s.Srv.Log.FlushedLSN(); s.appliedLSN != flushed {
		return fmt.Errorf("repl: promoted standby applied LSN %d != its durable LSN %d", s.appliedLSN, flushed)
	}
	want := replayDigest(c.Cfg.NewImage(), s.Srv.Log.Records(), s.Srv.Log.FlushedLSN())
	if got := engine.DigestDB(s.DB); got != want {
		return fmt.Errorf("repl: promoted image digest %016x != pure replay of its durable log %016x", got, want)
	}
	return nil
}
