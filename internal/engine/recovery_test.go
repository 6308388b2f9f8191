package engine

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// A timed crash in the middle of an OLTP run must leave a recoverable
// image: ARIES restart completes, the invariant checker accepts the
// recovered state, a deliberate second pass changes nothing, and the
// recovery work is visible in counters, wait attribution, and qstats.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	s := NewServer(Config{Seed: 7})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.ArmRecovery(RecoveryOptions{
		CkptInterval:  100 * sim.Millisecond,
		MaxFlushBytes: 256,
		Crash:         fault.CrashPlan{Point: fault.CrashAtTime, At: sim.Duration(2 * sim.Second)},
	})
	s.Start()
	acct := db.Table("account")
	pk := db.Index("pk_account")
	for u := 0; u < 8; u++ {
		s.Sim.Spawn("user", func(p *sim.Proc) {
			sess := s.Open(p).BindCtx()
			for !s.Crashed() {
				tx := sess.Begin()
				nid := sess.Ctx.RNG.Int64n(acct.NominalRows())
				key := btree.Key{acct.Get(acct.ToActual(nid), 0)}
				if _, ok := sess.Read(tx, pk, key, nid); !ok {
					sess.Abort(tx)
					continue
				}
				if !sess.Update(tx, pk, key, nid, func(w *RowWriter) { w.Add(1, 1) }) {
					continue
				}
				sess.Commit(tx)
			}
		})
	}
	s.Sim.Run(sim.Time(60 * sim.Second))
	if !s.Crashed() {
		t.Fatal("timed crash never fired")
	}
	if s.Ctr.Crashes != 1 {
		t.Fatalf("Crashes = %d", s.Ctr.Crashes)
	}
	commits := s.Ctr.TxnCommits
	if commits == 0 {
		t.Fatal("no commits before the crash")
	}

	drain := func() { s.Sim.Run(s.Sim.Now() + sim.Time(600*sim.Second)) }
	rep := s.Recover()
	drain()
	if !rep.Done {
		t.Fatalf("recovery did not complete: %+v", rep)
	}
	if rep.Winners == 0 {
		t.Fatal("no winners classified")
	}
	if rep.Elapsed <= 0 {
		t.Fatalf("recovery elapsed = %v", rep.Elapsed)
	}
	if err := s.CheckRecoveryInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	digest := s.StateDigest()

	// A deliberate second pass finds every loser already ended: no new
	// undo work, identical logical state.
	rep2 := s.Recover()
	drain()
	if !rep2.Done {
		t.Fatal("re-recovery did not complete")
	}
	if rep2.UndoRecords != 0 || rep2.CLRs != 0 {
		t.Fatalf("re-recovery redid undo work: undo=%d clrs=%d", rep2.UndoRecords, rep2.CLRs)
	}
	if got := s.StateDigest(); got != digest {
		t.Fatalf("re-recovery changed state digest: %d -> %d", digest, got)
	}
	if err := s.CheckRecoveryInvariants(); err != nil {
		t.Fatalf("invariants after re-recovery: %v", err)
	}

	// Recovery work surfaces in the wait attribution and the per-query
	// statistics.
	if s.Ctr.WaitNs[metrics.WaitRecovery] == 0 {
		t.Fatal("no WaitRecovery time attributed")
	}
	var row *metrics.QueryStatRow
	for _, r := range s.QStats.Snapshot() {
		if r.Query == "recovery" {
			row = &r
			break
		}
	}
	if row == nil {
		t.Fatal("no recovery row in query stats")
	}
	if row.Executions != 2 || row.TotalNs == 0 {
		t.Fatalf("recovery qstats row: executions=%d totalNs=%d", row.Executions, row.TotalNs)
	}
}
