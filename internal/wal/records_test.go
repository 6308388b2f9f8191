package wal

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// rawLog builds a log without starting the writer, so tests control the
// flush timeline (or its absence) explicitly.
func rawLog() (*sim.Sim, *Log) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	dev := iodev.New(iodev.PaperSSD(), ctr)
	return s, New(s, dev, ctr)
}

// A committer parked on the group commit must be woken by Stop and
// resolve as not durable instead of hanging forever. The log writer is
// never started here, so nothing can flush: before the Stop wake this
// proc stayed parked past any horizon.
func TestStopWakesParkedCommitter(t *testing.T) {
	s, l := rawLog()
	var err error
	done := false
	s.Spawn("t", func(p *sim.Proc) {
		_, err = l.Commit(p, 1000)
		done = true
	})
	s.Run(sim.Time(sim.Second))
	if done {
		t.Fatal("commit resolved with no flusher running")
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
	if !done {
		t.Fatal("Stop did not wake the parked committer")
	}
	if err != ErrNotDurable {
		t.Fatalf("err = %v, want ErrNotDurable", err)
	}
	if n := s.Live(); n != 0 {
		t.Fatalf("%d procs still live after Stop", n)
	}
}

// Append still works during shutdown (late aborts account their bytes),
// and a commit attempted after Stop resolves immediately as not durable.
func TestAppendAndCommitDuringStop(t *testing.T) {
	s, l := rawLog()
	l.Start()
	l.Stop()
	if lsn := l.Append(500); lsn != 500 {
		t.Fatalf("append during stop returned LSN %d", lsn)
	}
	var err error
	var wait sim.Duration
	s.Spawn("t", func(p *sim.Proc) {
		wait, err = l.Commit(p, 100)
	})
	s.Run(sim.Time(sim.Second))
	if err != ErrNotDurable {
		t.Fatalf("err = %v, want ErrNotDurable", err)
	}
	if wait != 0 {
		t.Fatalf("stopped-log commit waited %v", wait)
	}
	if n := s.Live(); n != 0 {
		t.Fatalf("%d procs still live after Stop", n)
	}
}

// A backlog of exactly MaxFlushBytes flushes as one batch; one byte more
// takes two.
func TestFlushBatchingAtMaxFlushBytes(t *testing.T) {
	run := func(bytes int64) int {
		s, l := rawLog()
		l.MaxFlushBytes = 1000
		batches := 0
		l.MidFlushHook = func() { batches++ }
		l.Start()
		s.Spawn("t", func(p *sim.Proc) {
			lsn := l.Append(bytes)
			l.WaitDurable(p, lsn)
		})
		s.Run(sim.Time(10 * sim.Second))
		l.Stop()
		s.Run(sim.Time(20 * sim.Second))
		return batches
	}
	if n := run(1000); n != 1 {
		t.Fatalf("exactly MaxFlushBytes took %d flushes, want 1", n)
	}
	if n := run(1001); n != 2 {
		t.Fatalf("MaxFlushBytes+1 took %d flushes, want 2", n)
	}
}

// MidFlushHook observes flushedLSN before the advance, so per-batch
// boundaries are visible: the first batch of a 1001-byte backlog must end
// at exactly the 1000-byte cap.
func TestFlushBatchBoundaryAtCap(t *testing.T) {
	s, l := rawLog()
	l.MaxFlushBytes = 1000
	var boundaries []int64
	l.MidFlushHook = func() { boundaries = append(boundaries, l.FlushedLSN()) }
	l.Start()
	s.Spawn("t", func(p *sim.Proc) {
		lsn := l.Append(1001)
		l.WaitDurable(p, lsn)
	})
	s.Run(sim.Time(10 * sim.Second))
	l.Stop()
	s.Run(sim.Time(20 * sim.Second))
	if len(boundaries) != 2 || boundaries[0] != 0 || boundaries[1] != 1000 {
		t.Fatalf("flush boundaries = %v, want [0 1000]", boundaries)
	}
	if l.FlushedLSN() != 1001 {
		t.Fatalf("flushed = %d", l.FlushedLSN())
	}
}

// A crash mid-flush loses the in-flight batch: records above the durable
// boundary are truncated, their LSNs zeroed so stale references cannot
// resurrect them, and the append position rewinds to the flushed LSN.
func TestCrashTruncatesUnflushedRecords(t *testing.T) {
	s, l := rawLog()
	l.Recording = true
	l.MaxFlushBytes = 150
	recs := []*Record{
		{Type: RecUpdate, Txn: 1, Bytes: 100},
		{Type: RecUpdate, Txn: 1, Bytes: 100},
		{Type: RecCommit, Txn: 1, Bytes: 100},
	}
	flushes := 0
	l.MidFlushHook = func() {
		flushes++
		if flushes == 2 {
			l.Crash() // first 150-byte batch is durable, second is lost
		}
	}
	l.Start()
	s.Spawn("t", func(p *sim.Proc) {
		lsn := l.AppendBatch(recs)
		l.WaitDurable(p, lsn)
	})
	s.Run(sim.Time(10 * sim.Second))
	if recs[0].LSN != 100 || recs[1].LSN != 200 || recs[2].LSN != 300 {
		t.Fatalf("record LSNs = %d, %d, %d", recs[0].LSN, recs[1].LSN, recs[2].LSN)
	}
	if l.FlushedLSN() != 150 {
		t.Fatalf("flushed = %d, want 150 (one batch)", l.FlushedLSN())
	}
	if dropped := l.TruncateAtFlushed(); dropped != 2 {
		t.Fatalf("dropped %d records, want 2", dropped)
	}
	if len(l.Records()) != 1 || l.Records()[0].LSN != 100 {
		t.Fatalf("surviving records = %v", l.Records())
	}
	if recs[1].LSN != 0 || recs[2].LSN != 0 {
		t.Fatalf("truncated records keep LSNs %d, %d; want zeroed", recs[1].LSN, recs[2].LSN)
	}
	// The flush boundary (150) landed mid-record: the torn record is
	// discarded and both LSNs rewind to the last complete record's end.
	if l.AppendedLSN() != 100 {
		t.Fatalf("appended rewound to %d, want 100 (last complete record)", l.AppendedLSN())
	}
	if l.FlushedLSN() != 100 {
		t.Fatalf("flushed rewound to %d, want 100 (torn tail discarded)", l.FlushedLSN())
	}
	// Restart drains cleanly and accepts new appends.
	l.MidFlushHook = nil
	l.Restart()
	s.Spawn("t2", func(p *sim.Proc) {
		lsn := l.AppendBatch([]*Record{{Type: RecCLR, Txn: 1, Bytes: 100}, {Type: RecAbort, Txn: 1}})
		if _, err := l.WaitDurable(p, lsn); err != nil {
			t.Errorf("post-restart commit failed: %v", err)
		}
	})
	s.Run(sim.Time(20 * sim.Second))
	l.Stop()
	s.Run(sim.Time(30 * sim.Second))
	if n := s.Live(); n != 0 {
		t.Fatalf("%d procs still live", n)
	}
}

// Zero-byte records (begin, abort, checkpoint marks) share their
// predecessor's end LSN and are durable with it; byte accounting is
// untouched, preserving the untyped path's flush timeline bit for bit.
func TestZeroByteRecordsShareLSN(t *testing.T) {
	_, l := rawLog()
	l.Recording = true
	begin := &Record{Type: RecBegin, Txn: 1}
	upd := &Record{Type: RecUpdate, Txn: 1, Bytes: 400}
	commit := &Record{Type: RecCommit, Txn: 1, Bytes: RecHeaderBytes}
	lsn := l.AppendBatch([]*Record{begin, upd, commit})
	if lsn != 400+RecHeaderBytes {
		t.Fatalf("batch LSN = %d", lsn)
	}
	if begin.LSN != 0 {
		t.Fatalf("begin LSN = %d, want 0 (zero bytes at log start)", begin.LSN)
	}
	if upd.LSN != 400 || commit.LSN != 400+RecHeaderBytes {
		t.Fatalf("LSNs = %d, %d", upd.LSN, commit.LSN)
	}
	if l.AppendedLSN() != lsn {
		t.Fatalf("appended = %d, want %d", l.AppendedLSN(), lsn)
	}
}

// A standby re-logs its primary's records as they are: AppendShipped
// keeps the very pointers, at the LSNs they already carry, and a record
// whose LSN disagrees with the position it lands at panics naming both
// values — without the check writing the record's LSN, and without the
// rejected batch moving the log.
func TestAppendShippedSharesAndChecksLSN(t *testing.T) {
	_, primary := rawLog()
	primary.Recording = true
	primary.AppendBatch([]*Record{
		{Type: RecBegin, Txn: 1},
		{Type: RecUpdate, Txn: 1, Bytes: 400},
		{Type: RecCommit, Txn: 1, Bytes: RecHeaderBytes},
	})
	primary.AppendBatch([]*Record{{Type: RecCLR, Txn: 2, Bytes: 100}, {Type: RecAbort, Txn: 2}})
	want := primary.Records()
	lsns := make([]int64, len(want))
	for i, r := range want {
		lsns[i] = r.LSN
	}

	_, standby := rawLog()
	standby.Recording = true
	if end := standby.AppendShipped(want[:3]); end != want[2].LSN {
		t.Fatalf("first shipped batch ends at %d, want %d", end, want[2].LSN)
	}
	if end := standby.AppendShipped(want[3:]); end != primary.AppendedLSN() {
		t.Fatalf("second shipped batch ends at %d, want %d", end, primary.AppendedLSN())
	}
	got := standby.Records()
	if len(got) != len(want) {
		t.Fatalf("standby holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || got[i].LSN != lsns[i] {
			t.Fatalf("record %d: standby %p LSN %d, primary %p LSN %d", i, got[i], got[i].LSN, want[i], lsns[i])
		}
	}

	// The rejected batch's first record is in place; its second is not.
	appended := standby.AppendedLSN()
	good := &Record{Type: RecBegin, Txn: 3, Bytes: 100, LSN: appended + 100}
	stray := &Record{Type: RecCommit, Txn: 3, Bytes: RecHeaderBytes, LSN: 7}
	at := appended + 100 + RecHeaderBytes
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "LSN 7") || !strings.Contains(msg, fmt.Sprint(at)) {
				t.Fatalf("panic %q does not name LSN 7 and position %d", msg, at)
			}
		}()
		standby.AppendShipped([]*Record{good, stray})
	}()
	if stray.LSN != 7 {
		t.Fatalf("a rejected record's LSN became %d", stray.LSN)
	}
	if standby.AppendedLSN() != appended || len(standby.Records()) != len(want) {
		t.Fatalf("a rejected batch moved the log to LSN %d with %d records, want %d with %d",
			standby.AppendedLSN(), len(standby.Records()), appended, len(want))
	}
}
