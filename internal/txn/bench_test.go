package txn

import (
	"testing"

	"repro/internal/sim"
)

// Transaction-lifecycle micro-benchmarks. One iteration is one
// transaction: Begin, four row locks, a log record with one insert op, a
// group-committed Commit — alone on the machine, so the commit wait is
// one flush.

func benchTxns(b *testing.B, recording bool) {
	b.ReportAllocs()
	// A fresh machine every 10 000 transactions: the recorded history
	// retains every one, and a million of them is a gigabyte.
	for done := 0; done < b.N; {
		b.StopTimer()
		s, m, _, l := setup()
		l.Recording = recording
		// Each transaction is begun in the previous one, as Session.Begin
		// does: under recording the new Txn takes over the held-lock list.
		var own Txn
		prev := &own
		stop := false
		commits := txnLoop(s, &stop, func() *Txn {
			prev = m.BeginIn(prev)
			return prev
		})
		chunk := min(b.N-done, 10_000)
		b.StartTimer()
		for *commits < chunk {
			s.Run(s.Now() + sim.Time(sim.Millisecond))
		}
		b.StopTimer()
		done += *commits
		stop = true
		l.Stop()
		s.Run(s.Now() + sim.Time(sim.Second))
	}
}

// BenchmarkTxn: crash-recovery recording off — the session-owned Txn is
// reused and nothing is allocated.
func BenchmarkTxn(b *testing.B) { benchTxns(b, false) }

// BenchmarkTxnRecording: recording on — every transaction is retained,
// its Txn, typed log records and the copy of its op cut from the
// Manager's slabs.
func BenchmarkTxnRecording(b *testing.B) { benchTxns(b, true) }
