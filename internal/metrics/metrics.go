// Package metrics collects the observability surface the paper reads:
// PCM-like processor counters (instructions, LLC misses, DRAM bandwidth),
// iostat-like device counters (SSD read/write bytes), and SQL-Server-DMV
// style cumulative wait statistics. Counters are plain cumulative values;
// readers (the harness's measurement window, the telemetry registry) take
// deltas between snapshots.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// WaitClass identifies a wait-statistics bucket, mirroring the wait types
// in the paper's Table 3 plus the scheduler and I/O waits the engine adds.
type WaitClass int

// Wait classes.
const (
	WaitLock        WaitClass = iota // row/key lock waits (LOCK_M_*)
	WaitLatch                        // non-buffer latch waits (LATCH_*)
	WaitPageLatch                    // buffer latch, non-I/O (PAGELATCH_*)
	WaitPageIOLatch                  // buffer latch, I/O (PAGEIOLATCH_*)
	WaitResourceSem                  // query memory grant queue (RESOURCE_SEMAPHORE)
	WaitWriteLog                     // log flush (WRITELOG)
	WaitCPU                          // runnable, waiting for a scheduler
	WaitIO                           // direct I/O waits outside the buffer pool
	WaitRecovery                     // crash-recovery work (analysis/redo/undo)
	WaitReplAck                      // commit waiting on replica acknowledgements
	WaitReplApply                    // standby apply work (redo on the replica)
	NumWaitClasses
)

// String returns the SQL-Server-style name of the wait class.
func (w WaitClass) String() string {
	switch w {
	case WaitLock:
		return "LOCK"
	case WaitLatch:
		return "LATCH"
	case WaitPageLatch:
		return "PAGELATCH"
	case WaitPageIOLatch:
		return "PAGEIOLATCH"
	case WaitResourceSem:
		return "RESOURCE_SEMAPHORE"
	case WaitWriteLog:
		return "WRITELOG"
	case WaitCPU:
		return "SOS_SCHEDULER_YIELD"
	case WaitIO:
		return "IO_COMPLETION"
	case WaitRecovery:
		return "RECOVERY"
	case WaitReplAck:
		return "REPL_ACK"
	case WaitReplApply:
		return "REPL_APPLY"
	default:
		return fmt.Sprintf("WAIT(%d)", int(w))
	}
}

// Counters is the cumulative counter set. All fields only ever increase.
type Counters struct {
	Instructions int64
	Cycles       int64

	LLCAccesses int64
	LLCMisses   int64

	DRAMReadBytes  int64
	DRAMWriteBytes int64
	QPIBytes       int64

	SSDReadBytes  int64
	SSDWriteBytes int64
	SSDReadOps    int64
	SSDWriteOps   int64

	TxnCommits  int64
	TxnAborts   int64
	QueriesDone int64

	BufferHits   int64
	BufferMisses int64
	Spills       int64

	// Robustness counters: fault injection, error recovery, and graceful
	// degradation under transient resource faults.
	FaultsInjected  int64 // fault events started by the injector
	FaultIOErrors   int64 // device requests failed transiently by a fault
	IORetries       int64 // storage-layer retries of failed device reads
	TxnRetries      int64 // driver-level transaction retries (victim/IO)
	QueryRetries    int64 // driver-level analytical query retries
	DeadlineKills   int64 // statements aborted at their deadline
	DegradedPlans   int64 // queries re-planned at lower DOP/grant
	QueriesFailed   int64 // queries that returned a QueryError
	QueriesCanceled int64 // queries bailed out at server shutdown
	CpusetFallbacks int64 // core picks that fell back to core 0 (empty cpuset)

	// Crash-recovery counters (ARIES-style restart).
	Crashes int64 // simulated crashes taken

	// Replication counters.
	ReplShippedBatches int64 // record batches shipped primary -> standby
	ReplShippedBytes   int64 // WAL bytes shipped over replication links
	ReplAppliedTxns    int64 // committed transactions applied on standbys
	ReplUnackedCommits int64 // durable commits whose replica ack never arrived

	WaitNs [NumWaitClasses]int64
}

// AddWait records w nanoseconds of wait time in the given class.
func (c *Counters) AddWait(class WaitClass, ns sim.Duration) {
	if ns > 0 {
		c.WaitNs[class] += int64(ns)
	}
}

// Sub returns the delta c - o.
func (c Counters) Sub(o Counters) Counters {
	d := Counters{
		Instructions:   c.Instructions - o.Instructions,
		Cycles:         c.Cycles - o.Cycles,
		LLCAccesses:    c.LLCAccesses - o.LLCAccesses,
		LLCMisses:      c.LLCMisses - o.LLCMisses,
		DRAMReadBytes:  c.DRAMReadBytes - o.DRAMReadBytes,
		DRAMWriteBytes: c.DRAMWriteBytes - o.DRAMWriteBytes,
		QPIBytes:       c.QPIBytes - o.QPIBytes,
		SSDReadBytes:   c.SSDReadBytes - o.SSDReadBytes,
		SSDWriteBytes:  c.SSDWriteBytes - o.SSDWriteBytes,
		SSDReadOps:     c.SSDReadOps - o.SSDReadOps,
		SSDWriteOps:    c.SSDWriteOps - o.SSDWriteOps,
		TxnCommits:     c.TxnCommits - o.TxnCommits,
		TxnAborts:      c.TxnAborts - o.TxnAborts,
		QueriesDone:    c.QueriesDone - o.QueriesDone,
		BufferHits:     c.BufferHits - o.BufferHits,
		BufferMisses:   c.BufferMisses - o.BufferMisses,
		Spills:         c.Spills - o.Spills,

		FaultsInjected:  c.FaultsInjected - o.FaultsInjected,
		FaultIOErrors:   c.FaultIOErrors - o.FaultIOErrors,
		IORetries:       c.IORetries - o.IORetries,
		TxnRetries:      c.TxnRetries - o.TxnRetries,
		QueryRetries:    c.QueryRetries - o.QueryRetries,
		DeadlineKills:   c.DeadlineKills - o.DeadlineKills,
		DegradedPlans:   c.DegradedPlans - o.DegradedPlans,
		QueriesFailed:   c.QueriesFailed - o.QueriesFailed,
		QueriesCanceled: c.QueriesCanceled - o.QueriesCanceled,
		CpusetFallbacks: c.CpusetFallbacks - o.CpusetFallbacks,

		Crashes: c.Crashes - o.Crashes,

		ReplShippedBatches: c.ReplShippedBatches - o.ReplShippedBatches,
		ReplShippedBytes:   c.ReplShippedBytes - o.ReplShippedBytes,
		ReplAppliedTxns:    c.ReplAppliedTxns - o.ReplAppliedTxns,
		ReplUnackedCommits: c.ReplUnackedCommits - o.ReplUnackedCommits,
	}
	for i := range d.WaitNs {
		d.WaitNs[i] = c.WaitNs[i] - o.WaitNs[i]
	}
	return d
}

// Add folds o into c in place, field by field — the cumulative dual of
// Sub, for folding a statement's counters into a per-template total
// without copying either set.
func (c *Counters) Add(o *Counters) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.LLCAccesses += o.LLCAccesses
	c.LLCMisses += o.LLCMisses
	c.DRAMReadBytes += o.DRAMReadBytes
	c.DRAMWriteBytes += o.DRAMWriteBytes
	c.QPIBytes += o.QPIBytes
	c.SSDReadBytes += o.SSDReadBytes
	c.SSDWriteBytes += o.SSDWriteBytes
	c.SSDReadOps += o.SSDReadOps
	c.SSDWriteOps += o.SSDWriteOps
	c.TxnCommits += o.TxnCommits
	c.TxnAborts += o.TxnAborts
	c.QueriesDone += o.QueriesDone
	c.BufferHits += o.BufferHits
	c.BufferMisses += o.BufferMisses
	c.Spills += o.Spills
	c.FaultsInjected += o.FaultsInjected
	c.FaultIOErrors += o.FaultIOErrors
	c.IORetries += o.IORetries
	c.TxnRetries += o.TxnRetries
	c.QueryRetries += o.QueryRetries
	c.DeadlineKills += o.DeadlineKills
	c.DegradedPlans += o.DegradedPlans
	c.QueriesFailed += o.QueriesFailed
	c.QueriesCanceled += o.QueriesCanceled
	c.CpusetFallbacks += o.CpusetFallbacks
	c.Crashes += o.Crashes
	c.ReplShippedBatches += o.ReplShippedBatches
	c.ReplShippedBytes += o.ReplShippedBytes
	c.ReplAppliedTxns += o.ReplAppliedTxns
	c.ReplUnackedCommits += o.ReplUnackedCommits
	for i := range c.WaitNs {
		c.WaitNs[i] += o.WaitNs[i]
	}
}

// MPKI returns LLC misses per thousand instructions.
func (c Counters) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.Instructions) * 1000
}

// Distribution summarizes a sample series for CDF plots (Figure 4).
type Distribution struct {
	Sorted []float64
}

// NewDistribution copies and sorts values.
func NewDistribution(values []float64) Distribution {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return Distribution{Sorted: s}
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation, or 0 for an empty distribution. The math is shared with
// the telemetry series summaries.
func (d Distribution) Percentile(p float64) float64 {
	return telemetry.PercentileSorted(d.Sorted, p)
}

// Mean returns the arithmetic mean, or 0 for an empty distribution.
func (d Distribution) Mean() float64 { return telemetry.MeanOf(d.Sorted) }

// CDF returns (value, cumulative fraction) points suitable for plotting.
func (d Distribution) CDF() [][2]float64 {
	n := len(d.Sorted)
	out := make([][2]float64, n)
	for i, v := range d.Sorted {
		out[i] = [2]float64{v, float64(i+1) / float64(n)}
	}
	return out
}
