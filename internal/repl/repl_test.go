package repl_test

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload/asdb"
	"repro/internal/workload/htap"
)

type topo struct {
	srv *engine.Server
	cl  *repl.Cluster
	d   *asdb.Dataset
}

// build assembles a small replicated topology: an armed primary on a
// tiny ASDB dataset plus standbys per rcfg, all on one sim clock.
func build(seed int64, rcfg repl.Config, ro engine.RecoveryOptions) *topo {
	acfg := asdb.Config{SF: 1, ActualRowsPerSF: 2, Seed: seed}
	d := asdb.Build(acfg)
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	srv := engine.NewServer(cfg)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.ArmRecovery(ro)
	rcfg.NewImage = func() *engine.Database { return asdb.Build(acfg).DB }
	cl := repl.New(srv, rcfg)
	srv.Start()
	cl.Start()
	return &topo{srv: srv, cl: cl, d: d}
}

// runWorkload drives closed-loop ASDB clients to the given simulated
// time. Clients finish their last transaction cleanly, so at return
// every transaction has ended (committed durable or aborted undone).
func (tp *topo) runWorkload(clients int, until sim.Time) {
	var st asdb.Stats
	asdb.RunClients(tp.srv, tp.d, clients, asdb.DefaultMix(), until, &st)
	tp.srv.Sim.Run(until)
}

// quiesce steps the sim until the replication pipeline has fully caught
// up (bounded), failing the test if it never does.
func (tp *topo) quiesce(t *testing.T) {
	t.Helper()
	deadline := tp.srv.Sim.Now() + sim.Time(600*sim.Second)
	for tp.srv.Sim.Now() < deadline && !tp.cl.Quiesced() {
		tp.srv.Sim.Run(tp.srv.Sim.Now() + sim.Time(sim.Second))
	}
	if !tp.cl.Quiesced() {
		t.Fatal("replication pipeline never quiesced")
	}
}

func (tp *topo) shutdown() {
	tp.srv.Stop()
	tp.srv.Sim.Run(tp.srv.Sim.Now() + sim.Time(2*sim.Second))
	tp.cl.Shutdown()
	tp.srv.Sim.Run(tp.srv.Sim.Now() + sim.Time(2*sim.Second))
}

// TestDigestEqualityAllModes checks the core replication invariant: at
// quiesce, every standby's in-memory dataset image is FNV-identical to
// the primary's, and every standby's log holds the primary's durable
// record objects themselves, in order, under every commit mode.
func TestDigestEqualityAllModes(t *testing.T) {
	for _, mode := range []repl.Mode{repl.ModeAsync, repl.ModeQuorum, repl.ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			tp := build(1,
				repl.Config{Mode: mode, Quorum: 1, Replicas: 2},
				engine.RecoveryOptions{MaxFlushBytes: 4 << 10})
			tp.runWorkload(16, sim.Time(2*sim.Second))
			tp.quiesce(t)
			if err := tp.cl.CheckDigests(); err != nil {
				t.Fatal(err)
			}
			prim := tp.srv.Log.Records()
			for i, s := range tp.cl.Standbys {
				recs := s.Srv.Log.Records()
				if len(recs) > len(prim) {
					t.Fatalf("standby %d log has %d records, primary %d", i, len(recs), len(prim))
				}
				for j, r := range recs {
					if p := prim[j]; r != p {
						t.Fatalf("standby %d log diverges from the primary at record %d: %p %v@%d txn %d vs %p %v@%d txn %d",
							i, j, r, r.Type, r.LSN, r.Txn, p, p.Type, p.LSN, p.Txn)
					}
				}
				// A zero-byte record appended after the flush that covered
				// its LSN (a checkpoint's end record) ships with the next flush.
				for _, p := range prim[len(recs):] {
					if p.Bytes != 0 {
						t.Fatalf("standby %d log ends at record %d; primary %v@%d never arrived", i, len(recs), p.Type, p.LSN)
					}
				}
			}
			if tp.srv.Ctr.ReplShippedBatches == 0 {
				t.Fatal("nothing shipped")
			}
			var applied int64
			for _, s := range tp.cl.Standbys {
				applied += s.Srv.Ctr.ReplAppliedTxns
			}
			if applied == 0 {
				t.Fatal("no transactions applied on standbys")
			}
			if mode != repl.ModeAsync && tp.srv.Ctr.WaitNs[metrics.WaitReplAck] == 0 {
				t.Fatalf("%v commits recorded no replication-ack wait", mode)
			}
			if tp.srv.Ctr.ReplUnackedCommits != 0 {
				t.Fatalf("%d commits unacked on a healthy cluster", tp.srv.Ctr.ReplUnackedCommits)
			}
			tp.shutdown()
		})
	}
}

// TestReplicationDeterminism runs the identical replicated workload
// twice and requires bit-identical outcomes.
func TestReplicationDeterminism(t *testing.T) {
	run := func() (digest uint64, commits, shipped int64, at sim.Time) {
		tp := build(7,
			repl.Config{Mode: repl.ModeSync, Replicas: 1},
			engine.RecoveryOptions{MaxFlushBytes: 4 << 10})
		tp.runWorkload(8, sim.Time(sim.Second))
		tp.quiesce(t)
		if err := tp.cl.CheckDigests(); err != nil {
			t.Fatal(err)
		}
		digest = engine.DigestDB(tp.d.DB)
		commits = tp.srv.Ctr.TxnCommits
		shipped = tp.srv.Ctr.ReplShippedBytes
		at = tp.srv.Sim.Now()
		tp.shutdown()
		return
	}
	d1, c1, s1, t1 := run()
	d2, c2, s2, t2 := run()
	if d1 != d2 || c1 != c2 || s1 != s2 || t1 != t2 {
		t.Fatalf("replicated runs diverged: (%016x, %d commits, %d shipped, %v) vs (%016x, %d, %d, %v)",
			d1, c1, s1, t1, d2, c2, s2, t2)
	}
}

// TestPartitionUnackedCommits partitions the link under sync commit:
// commits during the partition time out as durable-but-unacked, and
// after healing the standby converges to the primary image anyway.
func TestPartitionUnackedCommits(t *testing.T) {
	tp := build(3,
		repl.Config{Mode: repl.ModeSync, Replicas: 1, AckTimeout: 20 * sim.Millisecond},
		engine.RecoveryOptions{MaxFlushBytes: 4 << 10})
	tp.srv.Sim.Spawn("partition", func(p *sim.Proc) {
		p.Sleep(500 * sim.Millisecond)
		tp.cl.SetLinkDown(true)
		p.Sleep(300 * sim.Millisecond)
		tp.cl.SetLinkDown(false)
	})
	tp.runWorkload(8, sim.Time(1500*sim.Millisecond))
	tp.quiesce(t)
	if tp.srv.Ctr.ReplUnackedCommits == 0 {
		t.Fatal("partition produced no unacked commits")
	}
	if err := tp.cl.CheckDigests(); err != nil {
		t.Fatalf("standby diverged after heal: %v", err)
	}
	tp.shutdown()
}

// TestFailoverAndPITR crashes the primary mid-workload, promotes the
// most caught-up standby, and checks the failover invariants plus an
// exact-LSN point-in-time restore from the archive.
func TestFailoverAndPITR(t *testing.T) {
	tp := build(5,
		repl.Config{Mode: repl.ModeQuorum, Quorum: 1, Replicas: 2, Archive: true},
		engine.RecoveryOptions{
			MaxFlushBytes: 4 << 10,
			Crash:         fault.CrashPlan{Point: fault.CrashAtTime, At: 1500 * sim.Millisecond},
		})
	var frep *repl.FailoverReport
	var prep *repl.PITRReport
	var target int64
	var pitrErr error
	tp.srv.Sim.Spawn("failover-driver", func(p *sim.Proc) {
		for !tp.srv.Crashed() {
			p.Sleep(10 * sim.Millisecond)
		}
		frep = tp.cl.Failover(p)
		target = tp.cl.CommitLSNNear(0.5)
		if target == 0 {
			pitrErr = errors.New("no durable commit to target")
			return
		}
		_, prep, pitrErr = tp.cl.Arch.RecoverTo(p, tp.cl.PromotedStandby().Srv.Dev, target)
	})
	tp.runWorkload(16, sim.Time(3*sim.Second))
	tp.srv.Sim.Run(tp.srv.Sim.Now() + sim.Time(600*sim.Second))

	if frep == nil {
		t.Fatal("primary never crashed / failover never ran")
	}
	if err := tp.cl.VerifyFailover(frep); err != nil {
		t.Fatal(err)
	}
	if frep.Detect != 500*sim.Millisecond || frep.RTO < frep.Detect {
		t.Fatalf("RTO %v, detect %v: want the 500ms failure-detection delay inside the RTO", frep.RTO, frep.Detect)
	}
	if frep.AckedCommits == 0 {
		t.Fatal("no commits were acknowledged before the crash")
	}
	if pitrErr != nil {
		t.Fatalf("PITR failed: %v", pitrErr)
	}
	if err := tp.cl.Arch.VerifyPITR(prep); err != nil {
		t.Fatal(err)
	}

	// Restores are deterministic: an uncharged re-run lands identically.
	_, prep2, err := tp.cl.Arch.RecoverTo(nil, nil, target)
	if err != nil {
		t.Fatalf("repeat PITR failed: %v", err)
	}
	if prep2.Digest != prep.Digest || prep2.LandedLSN != prep.LandedLSN {
		t.Fatalf("repeat PITR diverged: %016x@%d vs %016x@%d",
			prep.Digest, prep.LandedLSN, prep2.Digest, prep2.LandedLSN)
	}

	tp.cl.Shutdown()
	tp.srv.Sim.Run(tp.srv.Sim.Now() + sim.Time(2*sim.Second))
}

// TestPITRMatchesReplayAtEveryTarget restores one run's archive to every
// durable commit LSN below its horizon. Each restore must land on its
// target with the digest of a pure replay, start from the latest
// snapshot at or before it, and count only the records and commits it
// replays past that snapshot. The horizon itself is left out: a
// zero-byte record appended after the last flush shares its LSN but
// never reaches the archive, since the stream closes with the log.
func TestPITRMatchesReplayAtEveryTarget(t *testing.T) {
	tp := build(7,
		repl.Config{Mode: repl.ModeAsync, Replicas: 1, Archive: true},
		engine.RecoveryOptions{MaxFlushBytes: 4 << 10})
	tp.runWorkload(4, sim.Time(50*sim.Millisecond))
	tp.shutdown()
	arch := tp.cl.Arch
	snaps := arch.SnapshotLSNs()
	recs := tp.srv.Log.Records()
	targets, fromBase, fromSnap := 0, 0, 0
	for _, c := range recs {
		lsn := c.LSN
		if c.Type != wal.RecCommit || lsn <= 0 || lsn >= arch.Horizon() {
			continue
		}
		_, rep, err := arch.RecoverTo(nil, nil, lsn)
		if err != nil {
			t.Fatal(err)
		}
		if err := arch.VerifyPITR(rep); err != nil {
			t.Fatal(err)
		}
		var snap int64
		for _, s := range snaps {
			if s <= lsn {
				snap = s
			}
		}
		if rep.SnapLSN != snap {
			t.Fatalf("restore to LSN %d started from snapshot %d, want %d", lsn, rep.SnapLSN, snap)
		}
		records, txns := 0, int64(0)
		for _, r := range recs {
			if r.LSN > snap && r.LSN <= lsn {
				records++
				if r.Type == wal.RecCommit {
					txns++
				}
			}
		}
		if rep.Records != records || rep.Txns != txns {
			t.Fatalf("restore to LSN %d from snapshot %d replayed %d records, %d txns; the primary has %d, %d in between",
				lsn, snap, rep.Records, rep.Txns, records, txns)
		}
		targets++
		if snap == 0 {
			fromBase++
		} else {
			fromSnap++
		}
	}
	if fromBase == 0 || fromSnap == 0 {
		t.Fatalf("%d targets: %d from the empty base, %d from a snapshot; want both", targets, fromBase, fromSnap)
	}
}

// TestRouteRead checks staleness-bounded read routing: a caught-up
// standby serves bounded reads, a lagging one does not.
func TestRouteRead(t *testing.T) {
	tp := build(13,
		repl.Config{Mode: repl.ModeAsync, Replicas: 2},
		engine.RecoveryOptions{MaxFlushBytes: 4 << 10})
	tp.runWorkload(8, sim.Time(sim.Second))
	tp.quiesce(t)
	if node := tp.cl.RouteRead(); node < 0 {
		t.Fatal("quiesced standby rejected a zero-staleness read")
	}
	// Partition the link and write more: standbys now lag.
	tp.cl.SetLinkDown(true)
	tp.runWorkload(8, tp.srv.Sim.Now()+sim.Time(300*sim.Millisecond))
	if node := tp.cl.RouteRead(); node >= 0 {
		t.Fatal("lagging standby accepted a zero-staleness read")
	}
	tp.cl.SetLinkDown(false)
	tp.quiesce(t)
	tp.shutdown()
}

// TestAbortResidueReplays makes an insert a lock victim after its nominal
// append: one transaction holds the X lock on the growing table's next
// row ID past the lock timeout, so the insert that claims that ID aborts
// inside its lock wait and its ghost rides the abort record's residue.
// The standby must reproduce the ghost; without it the standby's nominal
// high-water mark trails the primary's and the digests differ.
func TestAbortResidueReplays(t *testing.T) {
	tp := build(17,
		repl.Config{Mode: repl.ModeAsync, Replicas: 1},
		engine.RecoveryOptions{MaxFlushBytes: 4 << 10})
	hold := 2 * lock.DefaultLockTimeout
	tp.srv.Sim.Spawn("holder", func(p *sim.Proc) {
		tx := tp.srv.Txns.Begin()
		if !tx.Lock(p, lock.Key{Obj: tp.d.Growing.ID, Row: tp.d.Growing.NominalRows()}, lock.X) {
			t.Error("holder could not take the row lock")
		}
		p.Sleep(hold)
		tx.Abort()
	})
	inserted := true
	tp.srv.Sim.Spawn("inserter", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		sess := tp.srv.Open(p).BindCtx()
		inserted = tp.d.InsertRow(sess)
		sess.Close()
	})
	tp.srv.Sim.Run(sim.Time(2 * hold))
	if inserted {
		t.Fatal("the insert committed past a held row lock")
	}
	residue := 0
	for _, r := range tp.srv.Log.Records() {
		if r.Type == wal.RecAbort {
			residue += len(r.Residue)
		}
	}
	if residue == 0 {
		t.Fatal("the victim insert left no abort residue")
	}
	tp.runWorkload(8, sim.Time(sim.Second))
	tp.quiesce(t)
	if err := tp.cl.CheckDigests(); err != nil {
		t.Fatal(err)
	}
	tp.shutdown()
}

// TestNewRejectsColumnstore checks that replication refuses a database
// with a columnstore index, which its apply path does not replay.
func TestNewRejectsColumnstore(t *testing.T) {
	hcfg := htap.Config{Customers: 10, ActualTradesPerCustomer: 2, Seed: 1}
	d := htap.Build(hcfg)
	srv := engine.NewServer(engine.DefaultConfig())
	srv.AttachDB(d.DB)
	srv.ArmRecovery(engine.RecoveryOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("repl.New accepted a database with a columnstore index")
		}
	}()
	repl.New(srv, repl.Config{NewImage: func() *engine.Database { return htap.Build(hcfg).DB }})
}
