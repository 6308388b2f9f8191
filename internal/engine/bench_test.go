package engine

import (
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/btree"
	"repro/internal/sim"
)

// Recorded OLTP statements on one warm session of a server with
// crash-recovery recording armed. Each transaction is an Update of an
// account with two Sets, an Insert into the history, a Delete of the
// account (a ghost: its key stays in the index), and a Commit; the
// statements log their ops from the session's scratch, which the
// transaction manager copies into its slabs.

// recordedStatements boots an armed server and starts one session looping
// the transaction above until *stop, which it sets itself if one fails to
// commit. It returns the server and the count of statements (Update,
// Insert, Delete) that logged.
func recordedStatements(t testing.TB, stop *bool) (*Server, *int) {
	s := NewServer(Config{Seed: 5})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.ArmRecovery(RecoveryOptions{})
	s.Start()
	acct, pk := db.Table("account"), db.Index("pk_account")
	hist := db.Table("history")
	indexes := []*access.BTIndex{db.Index("pk_history")}
	stmts := new(int)
	s.Sim.Spawn("user", func(p *sim.Proc) {
		sess := s.Open(p).BindCtx()
		key := btree.Key{0}
		for !*stop {
			tx := sess.Begin()
			nid := sess.Ctx.RNG.Int64n(acct.NominalRows())
			key[0] = acct.Get(acct.ToActual(nid), 0)
			ok := sess.Update(tx, pk, key, nid, func(w *RowWriter) {
				w.Add(1, -5)
				w.Set(0, w.Get(0))
			})
			// Every other row is built outside RowBuf, on the stack: Insert
			// must not make its row escape.
			var own [3]int64
			row := own[:]
			if tx.ID()%2 == 0 {
				row = sess.RowBuf(3)
			}
			row[0], row[1], row[2] = hist.NominalRows(), nid, 5
			ok = ok && sess.Insert(tx, hist, row, indexes, nil) >= 0
			ok = ok && sess.Delete(tx, pk, key, nid)
			if !ok || !sess.Commit(tx) {
				t.Errorf("transaction %d did not commit", tx.ID())
				*stop = true
				return
			}
			*stmts += 3
		}
	})
	return s, stmts
}

// stopRecorded ends the loop and the server and checks that no proc is
// left.
func stopRecorded(t testing.TB, s *Server, stop *bool) {
	*stop = true
	s.Sim.Run(s.Sim.Now() + sim.Time(sim.Second))
	s.Stop()
	s.Sim.Run(s.Sim.Now() + sim.Time(10*sim.Second))
	if s.Sim.Live() != 0 {
		t.Fatalf("%d procs still live", s.Sim.Live())
	}
}

// recordedFloor is the most mallocs a recorded statement may average. A
// warm session measures ≈ 0.022 (the slabs' chunk refills, the log image
// doubling, the history table's column growth and its index splits);
// before the ops were copied into the slabs it measured ≈ 1.69: one op
// slice per statement, two for the Update's two Sets, and the image copy
// on each Insert.
const recordedFloor = 0.05

func TestRecordedStatementsAllocateNothingOfTheirOwn(t *testing.T) {
	stop := false
	s, stmts := recordedStatements(t, &stop)
	window := func() { s.Sim.Run(s.Sim.Now() + sim.Time(10*sim.Millisecond)) }
	for !stop && *stmts < 3*256 {
		window() // warm-up: lock table, session scratch, first chunks
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	before, start := *stmts, mallocs()
	for !stop && *stmts-before < 3*4096 {
		window()
	}
	n := *stmts - before
	if avg := float64(mallocs()-start) / float64(n); avg >= recordedFloor {
		t.Errorf("%.3f mallocs per recorded Update/Insert/Delete over %d statements, want < %v", avg, n, recordedFloor)
	}
	stopRecorded(t, s, &stop)
}

// BenchmarkRecordedStatements: one iteration is one recorded statement.
func BenchmarkRecordedStatements(b *testing.B) {
	b.ReportAllocs()
	// A fresh server every 30 000 statements: the recorded history retains
	// every one.
	for done := 0; done < b.N && !b.Failed(); {
		b.StopTimer()
		stop := false
		s, stmts := recordedStatements(b, &stop)
		chunk := min(b.N-done, 30_000)
		b.StartTimer()
		for !stop && *stmts < chunk {
			s.Sim.Run(s.Sim.Now() + sim.Time(sim.Millisecond))
		}
		b.StopTimer()
		done += *stmts
		stopRecorded(b, s, &stop)
	}
}
