package txn

import (
	"testing"

	"repro/internal/sim"
)

// Transaction-lifecycle micro-benchmarks. One iteration is one
// transaction: Begin, four row locks, a log record, a group-committed
// Commit — alone on the machine, so the commit wait is one flush.

func benchTxns(b *testing.B, recording bool) {
	b.ReportAllocs()
	// A fresh machine every 10 000 transactions: the recorded history
	// retains every one, and a million of them is a gigabyte.
	for done := 0; done < b.N; {
		b.StopTimer()
		s, m, _, l := setup()
		l.Recording = recording
		var own Txn
		stop := false
		commits := txnLoop(s, &stop, func() *Txn { return m.BeginIn(&own) })
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

// BenchmarkTxnRecording: recording on — every transaction is a retained
// object with typed log records.
func BenchmarkTxnRecording(b *testing.B) { benchTxns(b, true) }
