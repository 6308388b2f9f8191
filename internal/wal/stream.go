package wal

import (
	"repro/internal/sim"
)

// StreamReader cursors over the durable record stream of a Recording
// log — the log-shipping source for replication. The visibility rule is
// exactly durability: a record enters the stream when its end-byte LSN
// is <= flushedLSN, so a shipped prefix can never contain a record the
// primary itself could lose in a crash. Records with Bytes == 0 share
// their predecessor's end byte and enter the stream with it.
//
// Readers single-thread within one reader (one shipper proc per
// reader); multiple independent readers over the same log are fine.
// Returned record pointers are shared with the log image; a standby
// re-logs them as they are (AppendShipped says why that is safe).
type StreamReader struct {
	l   *Log
	pos int // index into l.records of the next unread record
}

// NewStreamReader returns a reader positioned at the start of the log
// image. The log must be Recording, or the stream is forever empty.
func (l *Log) NewStreamReader() *StreamReader {
	return &StreamReader{l: l}
}

// NextBatch blocks p until at least one unread durable record exists,
// then returns all of them. It returns ok=false only when the log has
// stopped (or crashed), its writer proc has exited — so no in-flight
// flush can still advance the durable boundary — and the durable stream
// is exhausted; the final call before that may still deliver records — a
// batch whose AppendBatch raced the stop is visible exactly up to the
// records the final flush covered, and the rest never appear (their
// LSNs stay past the frozen flushedLSN, and a crash zeroes them via
// TruncateAtFlushed).
func (r *StreamReader) NextBatch(p *sim.Proc) ([]*Record, bool) {
	for {
		if batch := r.durableTail(); len(batch) > 0 {
			return batch, true
		}
		if r.l.stopped && r.l.writerDone {
			return nil, false
		}
		r.l.streamQ.Wait(p)
	}
}

// durableTail slices out unread records whose end byte is flushed and
// advances the cursor past them. The slice is capped at its length: the
// image's spare capacity belongs to the log's next append, not to a
// consumer that appends to its batch.
func (r *StreamReader) durableTail() []*Record {
	recs := r.l.records
	start := r.pos
	for r.pos < len(recs) && recs[r.pos].LSN <= r.l.flushedLSN {
		r.pos++
	}
	return recs[start:r.pos:r.pos]
}
