package engine

import (
	"fmt"

	"repro/internal/metrics"
)

// registerTelemetry publishes every subsystem's uniform metric surface on
// the server's registry — the engine-wide equivalent of the paper's
// fixed PCM/iostat/DMV counter set, sampled at 1-second simulated
// intervals. Everything here is a read-only closure over existing state
// or a nil-able hot-path handle, so an armed registry observes without
// perturbing; a disarmed server never calls this.
func (s *Server) registerTelemetry() {
	r := s.Tel

	// Buffer manager: hit ratio, eviction pressure, checkpoint progress.
	r.Gauge("buffer", "hit_ratio", "frac", func() float64 {
		total := s.Ctr.BufferHits + s.Ctr.BufferMisses
		if total == 0 {
			return 0
		}
		return float64(s.Ctr.BufferHits) / float64(total)
	})
	r.CounterFunc("buffer", "evictions", "pages", func() float64 { return float64(s.BP.Evictions()) })
	r.CounterFunc("buffer", "checkpoint_pages", "pages", func() float64 { return float64(s.BP.CheckpointPages()) })
	r.Gauge("buffer", "resident_pages", "pages", func() float64 { return float64(s.BP.ResidentPages()) })

	// WAL: append/flush byte streams and per-flush latency.
	r.CounterFunc("wal", "append_bytes", "B", func() float64 { return float64(s.Log.AppendedLSN()) })
	r.CounterFunc("wal", "flush_bytes", "B", func() float64 { return float64(s.Log.FlushedLSN()) })
	r.CounterFunc("wal", "flushes", "ops", func() float64 { return float64(s.Log.Flushes()) })
	s.Log.FlushHist = r.Histogram("wal", "flush_latency")

	// Scheduler: run-queue depth and core occupancy.
	r.Gauge("sched", "run_queue", "procs", func() float64 { return float64(s.M.RunQueueDepth()) })
	r.Gauge("sched", "busy_cores", "cores", func() float64 { return float64(s.M.BusyCores()) })
	r.Gauge("sched", "occupancy", "frac", func() float64 {
		return float64(s.M.BusyCores()) / float64(s.M.LogicalCores())
	})

	// Device: fluid-channel backlog (queue depth in pending time) and
	// cgroup throttle-induced waits.
	r.Gauge("dev", "read_backlog_ms", "ms", func() float64 {
		rd, _ := s.Dev.Backlog(s.Sim.Now())
		return rd.Seconds() * 1e3
	})
	r.Gauge("dev", "write_backlog_ms", "ms", func() float64 {
		_, wr := s.Dev.Backlog(s.Sim.Now())
		return wr.Seconds() * 1e3
	})
	r.CounterFunc("dev", "throttle_wait_ns", "ns", func() float64 {
		rd, wr := s.Dev.ThrottleWaitNs()
		return float64(rd + wr)
	})

	// LLC: per-socket MPKI against the socket's current COS (way-mask)
	// width — the CAT sensitivity surface.
	for i := 0; i < s.M.Spec.Sockets; i++ {
		sock := i
		r.Gauge("cache", fmt.Sprintf("llc%d_mpki", sock), "mpki", func() float64 {
			if s.Ctr.Instructions == 0 {
				return 0
			}
			return float64(s.M.LLC(sock).Stats().Misses) / float64(s.Ctr.Instructions) * 1000
		})
		r.Gauge("cache", fmt.Sprintf("llc%d_cos_ways", sock), "ways", func() float64 {
			return float64(s.M.LLC(sock).AllocatedWays())
		})
	}

	// Memory grants: workspace occupancy and queued grant requests.
	r.Gauge("grant", "occupancy", "frac", func() float64 {
		if s.workspace == 0 {
			return 0
		}
		return float64(s.workspaceUse) / float64(s.workspace)
	})
	r.Gauge("grant", "waiters", "procs", func() float64 { return float64(s.grantQ.Len()) })

	// Locks and latches: wait rates and timeouts.
	r.CounterFunc("lock", "wait_ns", "ns", func() float64 {
		return float64(s.Ctr.WaitNs[metrics.WaitLock])
	})
	r.CounterFunc("lock", "latch_wait_ns", "ns", func() float64 {
		return float64(s.Ctr.WaitNs[metrics.WaitLatch] +
			s.Ctr.WaitNs[metrics.WaitPageLatch] +
			s.Ctr.WaitNs[metrics.WaitPageIOLatch])
	})
	r.CounterFunc("lock", "timeouts", "ops", func() float64 { return float64(s.Locks.Timeouts) })

	// Sessions: currently open connections and cumulative opens.
	r.Gauge("session", "active", "sessions", func() float64 { return float64(s.sessActive) })
	r.CounterFunc("session", "opened", "sessions", func() float64 { return float64(s.sessOpened) })

	// Transactions: commit/abort rates.
	r.CounterFunc("txn", "commits", "ops", func() float64 { return float64(s.Ctr.TxnCommits) })
	r.CounterFunc("txn", "aborts", "ops", func() float64 { return float64(s.Ctr.TxnAborts) })
}
