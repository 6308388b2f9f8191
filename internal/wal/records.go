package wal

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/storage"
)

// This file adds typed logical records on top of the byte-count LSN
// space. Records are bookkeeping layered over the existing group-commit
// byte stream: appending a batch of records advances appendedLSN by the
// records' total byte size exactly as the pre-record Append(bytes) did,
// so the flush timeline — batch sizes, MaxFlushBytes splits, device
// competition — is bit-for-bit identical whether or not records are
// recorded. Recording is off by default and enabled only for
// crash-recovery experiments (Log.Recording).
//
// A record is durable iff its end-byte LSN is <= flushedLSN. On a crash
// the simulated durable log image is the record list truncated at the
// flushed LSN (TruncateAtFlushed).

// RecHeaderBytes is the per-record header overhead; it equals the commit
// record overhead built into Commit, so a commit lump of typed records
// totals exactly logBytes + RecHeaderBytes.
const RecHeaderBytes = 96

// RecType identifies a logical log record.
type RecType int

// Record types.
const (
	RecBegin     RecType = iota // transaction begin (zero bytes; folded into first lump)
	RecUpdate                   // row modification with page + undo info
	RecCommit                   // transaction commit
	RecAbort                    // transaction fully rolled back (end record)
	RecCLR                      // compensation log record for one undone update
	RecCkptBegin                // fuzzy checkpoint begin
	RecCkptEnd                  // fuzzy checkpoint end: carries the DPT
)

// String returns the ARIES-style record-type name.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCLR:
		return "CLR"
	case RecCkptBegin:
		return "CKPT_BEGIN"
	case RecCkptEnd:
		return "CKPT_END"
	default:
		return "REC(?)"
	}
}

// PageID names a page globally: file ID plus page number within the file.
type PageID struct {
	File int
	Page int64
}

// Zero reports whether the PageID is unset (record touches no page).
func (p PageID) Zero() bool { return p.File == 0 && p.Page == 0 }

// OpKind classifies a logical undo payload.
type OpKind int

// Logical operation kinds.
const (
	OpSet    OpKind = iota // cell overwrite: undo restores Old
	OpInsert               // nominal-row insert: undo deletes the row
	OpDelete               // nominal-row delete: undo restores the row
)

// Op is one logical modification with enough information to undo it.
// Ops are pure data (no closures): Seq is a global monotonic sequence
// assigned at registration, which under strict 2PL totally orders the
// writes to any one cell.
type Op struct {
	Kind OpKind
	T    *storage.Table
	Row  int64 // actual row ID (OpSet)
	Col  int   // column (OpSet)
	Old  int64 // pre-image (OpSet)
	New  int64 // post-image (OpSet)
	Seq  int64

	// Redo payload for log-shipping replication (OpInsert only; captured
	// when Recording). Img is the inserted row image; Materialized records
	// whether this insert crossed a K boundary and appended an actual row
	// (Row then holds the position it was appended at), so a replica
	// replays the primary's materialization decision and placement instead
	// of re-deriving them from interleaving-sensitive counters; Indexed
	// records whether index/columnstore maintenance ran before the insert
	// completed (false for a victim killed between the nominal append and
	// its row lock).
	Img          []int64
	Materialized bool
	Indexed      bool
}

// Undo reverses the op against the in-memory table image. It is
// idempotent only through the caller's bookkeeping (recovery tracks how
// far each loser has been undone).
func (o Op) Undo() {
	switch o.Kind {
	case OpSet:
		o.T.Set(o.Row, o.Col, o.Old)
	case OpInsert:
		o.T.DeleteNominal()
	case OpDelete:
		o.T.UndeleteNominal()
	}
}

// PageRecLSN is one dirty-page-table entry: the page and the LSN of the
// first record that dirtied it since it was last clean (recLSN).
type PageRecLSN struct {
	Page   PageID
	RecLSN int64
}

// Record is one typed logical log record. LSN is the record's end-byte
// position in the byte-count LSN space (0 = not yet appended); records
// with Bytes == 0 share the end byte of their predecessor and become
// durable with it.
type Record struct {
	LSN   int64
	Type  RecType
	Txn   int64
	Bytes int64
	Page  PageID // page touched (RecUpdate / RecCLR)
	Ops   []Op   // logical payload (RecUpdate)

	// UndoOf is the LSN of the forward record this CLR compensates
	// (RecCLR only); analysis uses it to skip already-undone records on
	// recovery-after-crash-in-recovery.
	UndoOf int64

	// Residue carries an aborted transaction's insert ops (RecAbort only,
	// Recording). A rolled-back insert leaves a ghost: the nominal
	// high-water mark stays bumped and a materialized actual row survives
	// with its values (DeleteNominal only decrements the live count), so a
	// replica rebuilding state purely from the committed stream would
	// diverge from the primary image. Shipping the residue on the abort
	// end record lets replicas reproduce the ghosts without the forward
	// records ever entering the LSN byte space.
	Residue []Op

	// Fuzzy-checkpoint payload (RecCkptEnd only).
	DPT []PageRecLSN
}

// AppendBatch appends a batch of records as one lump, advancing the LSN
// space by the batch's total byte size — identical to a plain
// Append(total) — and, when Recording, assigning each record its
// end-byte LSN and retaining it in the simulated log image. It returns
// the batch's end LSN. The log keeps the records, not the slice.
func (l *Log) AppendBatch(recs []*Record) int64 {
	var total int64
	for _, r := range recs {
		total += r.Bytes
	}
	end := l.Append(total)
	if l.Recording {
		l.reserve(len(recs))
		pos := end - total
		for _, r := range recs {
			pos += r.Bytes
			r.LSN = pos
			l.records = append(l.records, r)
		}
	}
	return end
}

// AppendShipped appends another log's records to this one — a standby
// re-logging its primary's durable stream. The LSN space advances exactly
// as AppendBatch would (same byte sizes, same order), so each record's
// position here equals the LSN it already carries: AppendShipped checks
// that, before appending anything, and panics naming both values on a
// mismatch; it never writes a record. The records are shared, not
// copied. That is safe because nothing writes a shipped record again:
// the stream ships only durable records, so TruncateAtFlushed never
// zeroes one; AddAbortResidue writes a record only before it is flushed;
// a standby never crashes, so its own log is never truncated; and the
// WAL archive already keeps the same pointers.
func (l *Log) AppendShipped(recs []*Record) int64 {
	pos := l.appendedLSN
	for _, r := range recs {
		pos += r.Bytes
		if r.LSN != pos {
			panic(fmt.Sprintf("wal: shipped %v record carries LSN %d, appended at %d", r.Type, r.LSN, pos))
		}
	}
	end := l.Append(pos - l.appendedLSN)
	if l.Recording {
		l.reserve(len(recs))
		l.records = append(l.records, recs...)
	}
	return end
}

// reserve makes room for n more records in the log image, doubling its
// capacity when it is full: append alone grows a slice this large by
// about a quarter at a time, and the image is the run's largest slice.
func (l *Log) reserve(n int) {
	if len(l.records)+n > cap(l.records) {
		l.records = slices.Grow(l.records, max(n, len(l.records)))
	}
}

// Records returns the in-memory log image (records appended so far,
// durable or not). Recovery reads it after TruncateAtFlushed.
func (l *Log) Records() []*Record { return l.records }

// BoundaryStraddlesCommit reports whether the flushed boundary currently
// leaves some transaction partially durable: at least one of its update
// records is flushed while its commit record is appended but not yet
// durable. A crash at such an instant is guaranteed to leave an ARIES
// loser — a transaction restart must roll back with logged undo work.
// Whether any given flush lands this way depends on where the boundary
// falls inside the commit lumps, so crash plans that need undo work to
// exist (the during-undo point) poll this instead of trusting luck.
// Recording only. A transaction's records are contiguous in the image
// (they are appended as one batch at commit), which bounds the walk.
func (l *Log) BoundaryStraddlesCommit() bool {
	i := sort.Search(len(l.records), func(i int) bool { return l.records[i].LSN > l.flushedLSN })
	if i == 0 || i >= len(l.records) {
		return false
	}
	id := l.records[i].Txn
	if id == 0 {
		return false // checkpoint records belong to no transaction
	}
	durableUpdate := false
	for j := i - 1; j >= 0 && l.records[j].Txn == id; j-- {
		if l.records[j].Type == RecUpdate {
			durableUpdate = true
			break
		}
	}
	if !durableUpdate {
		return false
	}
	for j := i; j < len(l.records) && l.records[j].Txn == id; j++ {
		if l.records[j].Type == RecCommit {
			return true
		}
	}
	return false
}

// NextSeq hands out the next global op sequence number.
func (l *Log) NextSeq() int64 {
	l.opSeq++
	return l.opSeq
}

// TruncateAtFlushed models the crash: every record past the flushed LSN
// never reached the device and is dropped from the durable image (its
// LSN is zeroed so stale references cannot resurrect it). The flush
// boundary can land mid-record; the durable image ends at the last
// complete record and the torn bytes past it are discarded — as real
// WALs drop a torn tail record at restart — so both the append position
// and the flushed LSN rewind to that record's end. It returns the number
// of records lost.
func (l *Log) TruncateAtFlushed() int {
	if !l.Recording {
		l.appendedLSN = l.flushedLSN
		return 0
	}
	n := len(l.records)
	keep := n
	for keep > 0 && l.records[keep-1].LSN > l.flushedLSN {
		keep--
		l.records[keep].LSN = 0
	}
	lost := n - keep
	l.records = l.records[:keep]
	var end int64
	if keep > 0 {
		end = l.records[keep-1].LSN
	}
	l.appendedLSN = end
	if l.flushedLSN > end {
		l.flushedLSN = end
	}
	return lost
}

// Crash freezes the log at the crash instant: the writer exits without
// completing its in-flight flush (a batch handed to the device but not
// yet acknowledged is lost), and parked committers are woken to observe
// the not-durable outcome.
func (l *Log) Crash() {
	l.crashed = true
	l.stopped = true
	l.writerIdle.WakeAll(l.sm)
	l.commitQ.WakeAll(l.sm)
	l.streamQ.WakeAll(l.sm)
}

// Restart clears the stop/crash flags and spawns a fresh log writer, so
// recovery can flush CLRs through the device under the same throttles as
// regular flushes.
func (l *Log) Restart() {
	l.stopped = false
	l.crashed = false
	l.Start()
}
