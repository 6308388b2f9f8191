// Package wal implements the engine's write-ahead log with group commit.
//
// Transactions append log records to an in-memory log buffer; committing
// waits until the log writer has flushed past the transaction's LSN. The
// log writer batches pending bytes into device writes, so many small
// commits share one flush (group commit). All flush I/O goes through the
// device's write channel, where it competes with checkpoint writes and is
// subject to the blkio write throttle — the mechanism behind the paper's
// finding that transactional throughput is sensitive to write bandwidth
// even when data fits in memory.
package wal

import (
	"errors"

	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ErrNotDurable is returned by Commit/WaitDurable when the log stops (or
// crashes) before the caller's records reach the device: the transaction
// is not durable and must be treated as aborted.
var ErrNotDurable = errors.New("wal: log stopped before commit record flushed")

// Log is a write-ahead log bound to one device.
type Log struct {
	sm  *sim.Sim
	dev *iodev.Device
	ctr *metrics.Counters

	// MaxFlushBytes caps one flush I/O (the 60 KB log-block limit).
	MaxFlushBytes int64

	// Recording retains typed logical records (records.go) for crash
	// recovery. Off by default: baseline runs keep the pure byte-count
	// behaviour and allocate nothing per record.
	Recording bool

	// MidFlushHook, when set, runs between the device write and the
	// flushedLSN advance — the seeded crash point that loses an
	// acknowledged-by-device-but-not-yet-visible flush batch.
	MidFlushHook func()

	// AppendGapHook, when set, runs after a commit lump is appended but
	// before its flush wait — the seeded crash point where records exist
	// in the log buffer only.
	AppendGapHook func()

	// FlushHist, when telemetry is armed, observes each flush's latency
	// (device write + penalty). Nil off: Observe on the nil histogram is
	// a no-op, so the writer loop pays one branch.
	FlushHist *telemetry.Hist

	appendedLSN int64 // bytes appended
	flushedLSN  int64 // bytes durably written
	flushes     int64 // completed flush I/Os

	records []*Record // simulated log image (Recording only)
	opSeq   int64     // global logical-op sequence

	writerIdle sim.WaitQueue // log writer parks here when nothing to do
	commitQ    sim.WaitQueue // committers park here, keyed by LSN, until a flush covers them
	streamQ    sim.WaitQueue // stream readers park here until flushedLSN advances

	flushPenaltyNs float64 // fault-injected extra latency per flush

	stopped    bool
	crashed    bool
	writerDone bool // log-writer proc has exited (no further flush can land)
}

// New creates a log writing to dev.
func New(sm *sim.Sim, dev *iodev.Device, ctr *metrics.Counters) *Log {
	return &Log{sm: sm, dev: dev, ctr: ctr, MaxFlushBytes: 60 << 10}
}

// Start spawns the log-writer proc.
func (l *Log) Start() {
	l.writerDone = false
	l.sm.Spawn("log-writer", func(p *sim.Proc) {
		// Stream readers treat end-of-stream as "stopped AND writer
		// exited": a flush in flight at the stop instant still completes
		// and advances flushedLSN, so readers must not conclude the
		// durable stream is exhausted until no further flush can land.
		defer func() {
			l.writerDone = true
			l.streamQ.WakeAll(l.sm)
		}()
		for !l.stopped {
			if l.appendedLSN == l.flushedLSN {
				l.writerIdle.Wait(p)
				continue
			}
			batch := l.appendedLSN - l.flushedLSN
			if batch > l.MaxFlushBytes {
				batch = l.MaxFlushBytes
			}
			flushStart := p.Now()
			l.dev.Write(p, batch)
			if l.flushPenaltyNs > 0 {
				p.Sleep(sim.Duration(l.flushPenaltyNs))
			}
			l.FlushHist.Observe(sim.Duration(p.Now() - flushStart))
			l.flushes++
			if l.MidFlushHook != nil {
				l.MidFlushHook()
				if l.crashed {
					// The crash landed between the device write and the
					// LSN advance: the batch is lost.
					return
				}
			}
			l.flushedLSN += batch
			// Wake only the committers this flush made durable: one that
			// appended while it was in flight stays parked for the next.
			l.commitQ.WakeUpTo(l.sm, l.flushedLSN)
			l.streamQ.WakeAll(l.sm)
		}
	})
}

// SetFlushPenalty installs (or clears, with 0) a per-flush latency
// penalty — the fault model for a slow or degraded log device, where
// every flush pays extra firmware/driver latency.
func (l *Log) SetFlushPenalty(ns float64) {
	if ns < 0 {
		ns = 0
	}
	l.flushPenaltyNs = ns
}

// Stop makes the log writer exit at its next wakeup and wakes parked
// committers so they can observe the shutdown (their commits resolve as
// ErrNotDurable instead of hanging forever). Stream readers parked in
// StreamReader.NextBatch are woken too, but they observe end-of-stream
// only after the writer has exited: a flush in flight at the stop
// instant still completes and advances the flushed LSN, and readers
// drain through it first. The durable stream is therefore frozen at the
// flushed LSN after that final flush, deterministically — a batch whose
// AppendBatch raced the stop is visible exactly up to the records whose
// end byte the final flush covered, and the rest of the batch never
// enters the stream (see StreamReader for the precise visibility rule).
func (l *Log) Stop() {
	l.stopped = true
	l.writerIdle.WakeAll(l.sm)
	l.commitQ.WakeAll(l.sm)
	l.streamQ.WakeAll(l.sm)
}

// Append adds bytes of log records and returns the record's LSN.
func (l *Log) Append(bytes int64) int64 {
	if bytes < 0 {
		bytes = 0
	}
	l.appendedLSN += bytes
	return l.appendedLSN
}

// Commit appends the commit record and blocks p until the log is durable
// past it, recording the wait as WRITELOG. It returns the wait duration
// and ErrNotDurable when the log stopped before the flush reached the
// commit record.
func (l *Log) Commit(p *sim.Proc, lastBytes int64) (sim.Duration, error) {
	lsn := l.Append(lastBytes + 96) // commit record overhead
	return l.WaitDurable(p, lsn)
}

// WaitDurable blocks p until the log is durable past lsn, charging the
// wait as WRITELOG. It returns ErrNotDurable when the log stopped (or
// crashed) first.
func (l *Log) WaitDurable(p *sim.Proc, lsn int64) (sim.Duration, error) {
	start := p.Now()
	for l.flushedLSN < lsn && !l.stopped {
		l.writerIdle.WakeAll(l.sm)
		l.commitQ.WaitKey(p, lsn)
	}
	wait := sim.Duration(p.Now() - start)
	metrics.ChargeWait(p, l.ctr, metrics.WaitWriteLog, wait)
	if l.flushedLSN < lsn {
		return wait, ErrNotDurable
	}
	return wait, nil
}

// FlushedLSN returns the durable LSN.
func (l *Log) FlushedLSN() int64 { return l.flushedLSN }

// AppendedLSN returns the in-memory LSN.
func (l *Log) AppendedLSN() int64 { return l.appendedLSN }

// Flushes returns the count of completed flush I/Os.
func (l *Log) Flushes() int64 { return l.flushes }
