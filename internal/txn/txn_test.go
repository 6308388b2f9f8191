package txn

import (
	"testing"

	"repro/internal/iodev"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wal"
)

func setup() (*sim.Sim, *Manager, *metrics.Counters, *wal.Log) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	dev := iodev.New(iodev.PaperSSD(), ctr)
	l := wal.New(s, dev, ctr)
	l.Start()
	m := NewManager(lock.NewManager(s, ctr), l, ctr)
	return s, m, ctr, l
}

func TestCommitReleasesLocksAndCounts(t *testing.T) {
	s, m, ctr, l := setup()
	k := lock.Key{Obj: 1, Row: 1}
	s.Spawn("t1", func(p *sim.Proc) {
		tx := m.Begin()
		tx.Lock(p, k, lock.X)
		tx.LogWrite(300)
		tx.Commit(p)
	})
	s.Spawn("t2", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		tx := m.Begin()
		tx.Lock(p, k, lock.X) // must be granted after t1 commits
		tx.Commit(p)
	})
	s.Run(sim.Time(sim.Second))
	if ctr.TxnCommits != 2 {
		t.Fatalf("commits = %d", ctr.TxnCommits)
	}
	if m.Locks.Held(1, k) || m.Locks.Held(2, k) {
		t.Fatal("locks leaked")
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

func TestAbortReleasesWithoutFlushWait(t *testing.T) {
	s, m, ctr, l := setup()
	k := lock.Key{Obj: 1, Row: 2}
	s.Spawn("t", func(p *sim.Proc) {
		tx := m.Begin()
		tx.Lock(p, k, lock.X)
		tx.LogWrite(500)
		tx.Abort()
		if m.Locks.Held(tx.ID(), k) {
			t.Error("abort leaked lock")
		}
	})
	s.Run(sim.Time(sim.Second))
	if ctr.TxnAborts != 1 || ctr.TxnCommits != 0 {
		t.Fatalf("aborts=%d commits=%d", ctr.TxnAborts, ctr.TxnCommits)
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

func TestDoubleCommitIsNoOp(t *testing.T) {
	s, m, ctr, l := setup()
	s.Spawn("t", func(p *sim.Proc) {
		tx := m.Begin()
		tx.Commit(p)
		tx.Commit(p)
		tx.Abort()
	})
	s.Run(sim.Time(sim.Second))
	if ctr.TxnCommits != 1 || ctr.TxnAborts != 0 {
		t.Fatalf("commits=%d aborts=%d", ctr.TxnCommits, ctr.TxnAborts)
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

// TestConverterStarvationVictimRetries exercises the documented residual
// hazard of the barging admission policy: a U holder converting to X
// starves under a continuous stream of S readers, times out as the
// victim, aborts cleanly, and succeeds on retry once the stream drains.
func TestConverterStarvationVictimRetries(t *testing.T) {
	s, m, ctr, l := setup()
	k := lock.Key{Obj: 9, Row: 1}
	readersUntil := sim.Time(300 * sim.Millisecond)
	// Four staggered readers, each holding S for 20ms and immediately
	// re-acquiring: the granted S set never drains while they run.
	for i := 0; i < 4; i++ {
		off := sim.Duration(i) * 5 * sim.Millisecond
		s.Spawn("reader", func(p *sim.Proc) {
			p.Sleep(off)
			for p.Now() < readersUntil {
				tx := m.Begin()
				if !tx.Lock(p, k, lock.S) {
					continue
				}
				p.Sleep(20 * sim.Millisecond)
				tx.Commit(p)
			}
		})
	}
	victim, retried := false, false
	s.Spawn("converter", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		tx := m.Begin()
		if !tx.Lock(p, k, lock.U) {
			t.Error("U should be granted alongside S readers")
			return
		}
		if tx.Lock(p, k, lock.X) {
			t.Error("U->X conversion succeeded under a continuous S stream")
			return
		}
		victim = true
		if tx.Active() {
			t.Error("victim transaction still active after failed Lock")
		}
		if m.Locks.Held(tx.ID(), k) {
			t.Error("victim abort leaked its U lock")
		}
		// Clean retry after the reader stream drains.
		p.Sleep(sim.Duration(readersUntil-p.Now()) + 100*sim.Millisecond)
		tx2 := m.Begin()
		if !tx2.Lock(p, k, lock.U) || !tx2.Lock(p, k, lock.X) {
			t.Error("retry could not lock after readers drained")
			return
		}
		tx2.LogWrite(200)
		tx2.Commit(p)
		retried = true
	})
	s.Run(sim.Time(2 * sim.Second))
	if !victim {
		t.Fatal("converter was never made a victim")
	}
	if !retried {
		t.Fatal("retry did not commit")
	}
	if m.Locks.Timeouts < 1 {
		t.Fatalf("lock timeouts = %d, want >= 1", m.Locks.Timeouts)
	}
	if ctr.TxnAborts < 1 {
		t.Fatalf("aborts = %d, want >= 1", ctr.TxnAborts)
	}
	l.Stop()
	s.Run(sim.Time(3 * sim.Second))
}

func TestBeginInReusesAnEndedTxn(t *testing.T) {
	s, m, ctr, l := setup()
	keys := []lock.Key{{Obj: 1, Row: 1}, {Obj: 1, Row: 2}, {Obj: 2, Row: -1}}
	s.Spawn("t", func(p *sim.Proc) {
		var own Txn
		first := m.BeginIn(&own)
		if first != &own {
			t.Fatal("BeginIn did not hand out the caller's Txn")
		}
		id1 := first.ID()
		for _, k := range keys {
			first.Lock(p, k, lock.X)
		}
		first.LogWrite(500)
		if !first.Commit(p) {
			t.Fatal("commit failed")
		}
		// The finished handle is inert until it is begun again.
		if first.Active() || first.Commit(p) || first.Lock(p, keys[0], lock.S) {
			t.Fatal("finished handle still does work")
		}
		first.Abort()
		if ctr.TxnCommits != 1 || ctr.TxnAborts != 0 {
			t.Fatalf("commits %d aborts %d after poking the finished handle", ctr.TxnCommits, ctr.TxnAborts)
		}

		other := m.Begin() // takes the next ID, as any Begin does
		second := m.BeginIn(&own)
		if second != &own {
			t.Fatal("ended Txn was not reused")
		}
		if !second.Active() || second.logBytes != 0 || len(second.held) != 0 {
			t.Fatalf("reused Txn starts active %v, logBytes %d, %d held", second.Active(), second.logBytes, len(second.held))
		}
		if cap(second.held) < len(keys) {
			t.Fatal("reused Txn lost its held-list capacity")
		}
		if second.ID() != id1+2 || other.ID() != id1+1 {
			t.Fatalf("IDs %d, %d, %d: not one sequence", id1, other.ID(), second.ID())
		}
		for _, k := range keys {
			if m.Locks.Held(id1, k) || m.Locks.Held(second.ID(), k) {
				t.Fatal("reused Txn begins holding a lock")
			}
		}

		// A transaction dropped without Commit or Abort keeps its storage and
		// its locks; BeginIn falls back to a fresh Txn rather than clobber it.
		second.Lock(p, keys[0], lock.X)
		third := m.BeginIn(&own)
		if third == &own || !second.Active() || !m.Locks.Held(second.ID(), keys[0]) {
			t.Fatal("BeginIn clobbered a transaction that had not ended")
		}
		third.Abort()
		second.Abort()
		other.Abort()
	})
	s.Run(sim.Time(sim.Second))
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

func TestRecordingKeepsOneTxnPerTransaction(t *testing.T) {
	s, m, _, l := setup()
	l.Recording = true
	s.Spawn("t", func(p *sim.Proc) {
		var own Txn
		a := m.BeginIn(&own)
		a.Lock(p, lock.Key{Obj: 1, Row: 1}, lock.X)
		a.Commit(p)
		b := m.BeginIn(&own)
		c := m.Begin()
		if a == &own || b == &own || a == b || b == c {
			t.Fatal("Recording must give every transaction its own Txn")
		}
		if all := m.All(); len(all) != 3 || all[0] != a || all[1] != b || all[2] != c {
			t.Fatalf("All() = %v", all)
		}
		if a.CommitRec() == nil || a.CommitRec().LSN == 0 {
			t.Fatal("committed transaction lost its commit record")
		}
		b.Abort()
		c.Abort()
	})
	s.Run(sim.Time(sim.Second))
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

// Under Recording every transaction gets its own Txn, but a new one takes
// over the held-lock list of the ended one it is begun in, while the
// ended one keeps its records in the history. One dropped without being
// ended keeps its locks and its list.
func TestRecordingBeginInTakesHeldList(t *testing.T) {
	s, m, _, l := setup()
	l.Recording = true
	keys := []lock.Key{{Obj: 1, Row: 1}, {Obj: 1, Row: 2}, {Obj: 2, Row: 3}}
	s.Spawn("t", func(p *sim.Proc) {
		a := m.Begin()
		for _, k := range keys {
			a.Lock(p, k, lock.X)
		}
		a.LogOp(200, wal.PageID{File: 1, Page: 1}, []wal.Op{{Kind: wal.OpSet, Row: 1}})
		if !a.Commit(p) {
			t.Fatal("commit failed")
		}
		arr := a.held[:1]

		b := m.BeginIn(a)
		if b == a || !b.Active() || len(b.held) != 0 || cap(b.held) < len(keys) || &b.held[:1][0] != &arr[0] {
			t.Fatalf("BeginIn(a) = %p active %v, %d held of cap %d: want a fresh Txn on a's held array",
				b, b.Active(), len(b.held), cap(b.held))
		}
		if a.held != nil {
			t.Fatal("the ended Txn still holds the list it handed on")
		}
		if all := m.All(); len(all) != 2 || all[0] != a || all[1] != b {
			t.Fatalf("All() = %v", all)
		}
		if len(a.Recs()) != 1 || a.CommitRec() == nil || a.CommitRec().LSN == 0 {
			t.Fatal("the ended Txn lost its records")
		}

		b.Lock(p, keys[0], lock.X)
		c := m.BeginIn(b)
		if c == b || !b.Active() || len(b.held) != 1 || cap(c.held) != 0 || !m.Locks.Held(b.ID(), keys[0]) {
			t.Fatal("BeginIn took the list of a transaction that had not ended")
		}
		c.Abort()
		b.Abort()
	})
	s.Run(sim.Time(sim.Second))
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

// txnLoop runs Begin → Lock×4 → LogOp → Commit back to back on one proc
// until *stop, through begin, and returns the count of commits. The log
// record carries one insert op with a 3-word row image, from one buffer
// reused by every transaction.
func txnLoop(s *sim.Sim, stop *bool, begin func() *Txn) (commits *int) {
	commits = new(int)
	ops := []wal.Op{{Kind: wal.OpInsert, Row: 1, Img: []int64{7, 8, 9}}}
	s.Spawn("t", func(p *sim.Proc) {
		for i := int64(0); !*stop; i++ {
			tx := begin()
			for j := int64(0); j < 4; j++ {
				tx.Lock(p, lock.Key{Obj: 1, Row: (i*4 + j) % 4096}, lock.X)
			}
			tx.LogOp(300, wal.PageID{File: 1, Page: 1}, ops)
			tx.Commit(p)
			*commits++
		}
	})
	return commits
}

func TestNonRecordingTxnAllocatesNothing(t *testing.T) {
	s, m, _, l := setup()
	var own Txn
	stop := false
	commits := txnLoop(s, &stop, func() *Txn { return m.BeginIn(&own) })
	window := func() { s.Run(s.Now() + sim.Time(10*sim.Millisecond)) }
	window() // warm-up: lock entries, held capacity, queue arrays
	before := *commits
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("%v allocs per 10 ms window of Begin → Lock×4 → LogOp → Commit, want 0", avg)
	}
	if *commits-before < 100 {
		t.Fatalf("only %d transactions in the measured windows", *commits-before)
	}
	stop = true
	window()
	l.Stop()
	s.Run(s.Now() + sim.Time(sim.Second))
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}
