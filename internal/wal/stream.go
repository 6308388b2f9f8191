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
// Returned record pointers are shared with the log image — callers that
// re-append them elsewhere (a standby log) must shallow-copy first,
// because AppendBatch assigns LSNs in place.
type StreamReader struct {
	l   *Log
	pos int // index into l.records of the next unread record
}

// NewStreamReader returns a reader positioned at the start of the log
// image. The log must be Recording, or the stream is forever empty.
func (l *Log) NewStreamReader() *StreamReader {
	return &StreamReader{l: l}
}

// WakeStream wakes parked stream readers. A reader whose cursor was
// rewound behind the flushed LSN (replication reconnect after a standby
// crash) has a durable tail to deliver but would otherwise park until
// the next flush advances the boundary.
func (l *Log) WakeStream() { l.streamQ.WakeAll(l.sm) }

// SeekPos repositions the reader to an absolute stream position.
// Reconnect after a standby crash seeks to the standby's retained record
// count: the standby log is a strict positional prefix of the primary's
// record stream and TruncateAtFlushed drops a suffix, so position — not
// LSN, which zero-byte records share with their predecessors — is the
// exact resume point.
func (r *StreamReader) SeekPos(pos int) {
	if pos < 0 {
		pos = 0
	}
	if pos > len(r.l.records) {
		pos = len(r.l.records)
	}
	r.pos = pos
}

// NextBatch blocks p until at least one unread durable record exists,
// then returns all of them plus the stream position of the batch's
// first record. It returns ok=false only when the log has stopped (or
// crashed), its writer proc has exited — so no in-flight flush can
// still advance the durable boundary — and the durable stream is
// exhausted; the final call before that may still deliver records — a
// batch whose AppendBatch raced the stop is visible exactly up to the
// records the final flush covered, and the rest never appear (their
// LSNs stay past the frozen flushedLSN, and a crash zeroes them via
// TruncateAtFlushed).
func (r *StreamReader) NextBatch(p *sim.Proc) ([]*Record, int, bool) {
	for {
		if batch, start := r.durableTail(); len(batch) > 0 {
			return batch, start, true
		}
		if r.l.stopped && r.l.writerDone {
			return nil, r.pos, false
		}
		r.l.streamQ.Wait(p)
	}
}

// durableTail slices out unread records whose end byte is flushed and
// advances the cursor past them, returning the slice and its starting
// stream position.
func (r *StreamReader) durableTail() ([]*Record, int) {
	recs := r.l.records
	start := r.pos
	end := start
	for end < len(recs) && recs[end].LSN <= r.l.flushedLSN {
		end++
	}
	if end == start {
		return nil, start
	}
	r.pos = end
	return recs[start:end], start
}
