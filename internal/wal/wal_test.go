package wal

import (
	"fmt"
	"testing"

	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func setup() (*sim.Sim, *Log, *metrics.Counters) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	dev := iodev.New(iodev.PaperSSD(), ctr)
	l := New(s, dev, ctr)
	l.Start()
	return s, l, ctr
}

func TestCommitWaitsForDurability(t *testing.T) {
	s, l, ctr := setup()
	committed := false
	s.Spawn("t", func(p *sim.Proc) {
		l.Append(500)
		l.Commit(p, 100)
		committed = true
	})
	s.Run(sim.Time(sim.Second))
	if !committed {
		t.Fatal("commit never completed")
	}
	if l.FlushedLSN() < 500+100 {
		t.Fatalf("flushed LSN = %d", l.FlushedLSN())
	}
	if ctr.SSDWriteBytes == 0 {
		t.Fatal("no log write issued")
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

func TestGroupCommitBatchesFlushes(t *testing.T) {
	s, l, ctr := setup()
	done := 0
	for i := 0; i < 50; i++ {
		s.Spawn("t", func(p *sim.Proc) {
			l.Commit(p, 200)
			done++
		})
	}
	s.Run(sim.Time(sim.Second))
	if done != 50 {
		t.Fatalf("committed %d of 50", done)
	}
	// 50 commits should need far fewer than 50 flush I/Os.
	if ctr.SSDWriteOps >= 25 {
		t.Fatalf("write ops = %d, expected group commit batching", ctr.SSDWriteOps)
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

func TestWriteThrottleDelaysCommit(t *testing.T) {
	run := func(limitMBps float64) float64 {
		s := sim.New(1)
		ctr := &metrics.Counters{}
		dev := iodev.New(iodev.PaperSSD(), ctr)
		if limitMBps > 0 {
			th := iodev.NewThrottle(limitMBps)
			dev.SetThrottles(nil, th)
		}
		l := New(s, dev, ctr)
		l.Start()
		var end sim.Time
		s.Spawn("t", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				l.Commit(p, 50_000) // 5 MB of log total
			}
			end = p.Now()
		})
		s.Run(sim.Time(100 * sim.Second))
		l.Stop()
		s.Run(sim.Time(200 * sim.Second))
		return end.Seconds()
	}
	fast := run(0)
	slow := run(1) // 1 MB/s write limit
	if slow < fast*10 {
		t.Fatalf("write throttle barely slowed commits: %.3fs vs %.3fs", slow, fast)
	}
}

func TestCommitRecordsWriteLogWait(t *testing.T) {
	s, l, ctr := setup()
	s.Spawn("t", func(p *sim.Proc) {
		l.Commit(p, 1000)
	})
	s.Run(sim.Time(sim.Second))
	if ctr.WaitNs[metrics.WaitWriteLog] == 0 {
		t.Fatal("commit recorded no WRITELOG wait")
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

// herdResult is what one committer of a herd saw: its resume count across
// its WaitDurable, the flush count it returned at, and its error.
type herdResult struct {
	resumes uint64
	flushes int64
	err     error
	done    bool
}

// herd spawns n committers that arrive gap apart, each appending bytes and
// waiting for its commit record; the results fill in as they finish.
func herd(s *sim.Sim, l *Log, n int, bytes int64, gap sim.Duration) []herdResult {
	res := make([]herdResult, n)
	for i := 0; i < n; i++ {
		s.Spawn("committer", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * gap)
			lsn := l.Append(bytes)
			before := p.Resumes()
			_, err := l.WaitDurable(p, lsn)
			res[i] = herdResult{resumes: p.Resumes() - before, flushes: l.Flushes(), err: err, done: true}
		})
	}
	return res
}

func TestFlushWakesOnlyTheCommittersItCovered(t *testing.T) {
	s, l, _ := setup()
	// 64 committers, 16 per flush at most, arriving while flushes are in
	// flight: before the keyed wake every flush woke everyone parked, and
	// the later arrivals re-parked once per flush that did not cover them.
	l.MaxFlushBytes = 16 * 1000
	res := herd(s, l, 64, 1000, 2*sim.Microsecond)
	s.Run(sim.Time(sim.Second))
	if l.Flushes() < 4 {
		t.Fatalf("%d flushes, want at least 4 for the test to mean anything", l.Flushes())
	}
	lastFlush := int64(0)
	for i, r := range res {
		if !r.done || r.err != nil {
			t.Fatalf("committer %d: done %v, err %v", i, r.done, r.err)
		}
		if r.resumes != 1 {
			t.Errorf("committer %d resumed %d times in one WaitDurable, want 1", i, r.resumes)
		}
		if r.flushes < lastFlush {
			t.Errorf("committer %d returned at flush %d, an earlier LSN at flush %d", i, r.flushes, lastFlush)
		}
		lastFlush = r.flushes
	}
	if res[0].flushes == res[63].flushes {
		t.Fatal("first and last committer became durable in the same flush")
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

// The buffer pool's WAL-before-data wait passes LSNs older than those of
// committers already parked, so the queue is not sorted by LSN: a prefix
// cut would strand the older waiter behind the newer one.
func TestOlderLSNQueuedBehindNewerWakesAtItsOwnFlush(t *testing.T) {
	s, l, _ := setup()
	l.MaxFlushBytes = 1000
	var order []string
	var flushesAt = map[string]int64{}
	wait := func(name string, lsn int64) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			before := p.Resumes()
			if _, err := l.WaitDurable(p, lsn); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if n := p.Resumes() - before; n != 1 {
				t.Errorf("%s resumed %d times, want 1", name, n)
			}
			order = append(order, name)
			flushesAt[name] = l.Flushes()
		}
	}
	l.Append(3000) // three flushes of 1000
	s.Spawn("newer", wait("newer", 3000))
	s.Spawn("older", wait("older", 1000)) // parks second, durable first
	s.Spawn("middle", wait("middle", 2000))
	s.Run(sim.Time(sim.Second))
	if fmt.Sprint(order) != "[older middle newer]" {
		t.Fatalf("wake order %v", order)
	}
	if flushesAt["older"] != 1 || flushesAt["middle"] != 2 || flushesAt["newer"] != 3 {
		t.Fatalf("woken at flushes %v, want older 1, middle 2, newer 3", flushesAt)
	}
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
}

func TestStopMidWaitFailsEveryParkedCommitter(t *testing.T) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	dev := iodev.New(iodev.PaperSSD(), ctr)
	dev.SetThrottles(nil, iodev.NewThrottle(1)) // 1 MB/s: flushes take ~16 ms
	l := New(s, dev, ctr)
	l.MaxFlushBytes = 16 * 1000
	l.Start()
	res := herd(s, l, 64, 1000, 0)
	s.Spawn("stopper", func(p *sim.Proc) {
		p.Sleep(20 * sim.Millisecond) // one flush done, the second in flight
		l.Stop()
	})
	s.Run(sim.Time(10 * sim.Second))
	durable, failed := 0, 0
	for i, r := range res {
		switch {
		case !r.done:
			t.Fatalf("committer %d still parked after Stop", i)
		case r.err == nil:
			durable++
		case r.err == ErrNotDurable:
			failed++
		default:
			t.Fatalf("committer %d: %v", i, r.err)
		}
	}
	if durable == 0 || failed == 0 || durable+failed != 64 {
		t.Fatalf("%d durable, %d not durable: want some of each", durable, failed)
	}
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}

func TestMidFlushCrashLosesTheBatchAndFailsItsCommitters(t *testing.T) {
	s, l, _ := setup()
	l.MaxFlushBytes = 16 * 1000
	res := herd(s, l, 64, 1000, 0)
	l.MidFlushHook = func() {
		if l.Flushes() == 2 {
			l.Crash() // the second batch reached the device but is lost
		}
	}
	s.Run(sim.Time(sim.Second))
	if l.FlushedLSN() != 16*1000 {
		t.Fatalf("flushed LSN %d after the crash, want the first batch only", l.FlushedLSN())
	}
	for i, r := range res {
		if !r.done {
			t.Fatalf("committer %d still parked after the crash", i)
		}
		if wantOK := i < 16; (r.err == nil) != wantOK {
			t.Errorf("committer %d: err %v, want durable %v", i, r.err, wantOK)
		}
	}
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}
