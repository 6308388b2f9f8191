// Package txn implements transaction lifecycle over the lock manager and
// write-ahead log: strict two-phase locking, log-record accounting, and
// group-committed durability.
package txn

import (
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Manager hands out transactions.
type Manager struct {
	Locks *lock.Manager
	Log   *wal.Log
	Ctr   *metrics.Counters

	// CommitWait, when set, runs after the transaction's commit record is
	// locally durable but before its locks release — the replication
	// commit-mode hook (sync/quorum acks). An error means the required
	// replica acknowledgements never arrived (link down, cluster
	// stopping): the transaction is locally durable but unacknowledged,
	// and Commit reports failure to the client while counting the outcome
	// separately from ordinary aborts.
	CommitWait func(p *sim.Proc, lsn int64) error

	nextID int64

	// Recovery bookkeeping, maintained only when the log records typed
	// records (crash-recovery experiments): every transaction ever begun,
	// so restart can classify winners/losers and the invariant checker
	// can replay the full op history.
	all []*Txn
}

// NewManager creates a transaction manager.
func NewManager(locks *lock.Manager, log *wal.Log, ctr *metrics.Counters) *Manager {
	return &Manager{Locks: locks, Log: log, Ctr: ctr}
}

// Recording reports whether crash-recovery bookkeeping is on.
func (m *Manager) Recording() bool { return m.Log.Recording }

// All returns every transaction begun (Recording only).
func (m *Manager) All() []*Txn { return m.all }

// Active returns the IDs of transactions begun but not yet ended, the
// active-transaction table a fuzzy checkpoint captures (Recording only).
func (m *Manager) Active() []int64 {
	var ids []int64
	for _, t := range m.all {
		if !t.done {
			ids = append(ids, t.id)
		}
	}
	return ids
}

// Begin starts a transaction in a Txn of its own.
func (m *Manager) Begin() *Txn { return m.BeginIn(nil) }

// BeginIn starts a transaction in t's storage, which the caller owns: once
// t's previous transaction has ended, the handle returned is t again —
// valid until Commit or Abort returns — and the held-lock list keeps its
// capacity from one transaction to the next. A nil t, and every call
// while Recording — the history retains each transaction — gets a new Txn.
func (m *Manager) BeginIn(t *Txn) *Txn {
	m.nextID++
	if m.Recording() {
		t = &Txn{m: m, id: m.nextID}
		m.all = append(m.all, t)
		return t
	}
	if t == nil || (t.m != nil && !t.done) {
		// Nothing to reuse — or t's transaction was dropped without being
		// ended, and keeps its locks as it would have in a Txn of its own.
		return &Txn{m: m, id: m.nextID}
	}
	*t = Txn{m: m, id: m.nextID, held: t.held[:0]}
	return t
}

// Txn is one transaction. Not safe for use by multiple procs.
type Txn struct {
	m        *Manager
	id       int64
	held     []lock.Key
	logBytes int64
	done     bool

	// Recovery bookkeeping (Recording only).
	recs      []*wal.Record // forward update records, in statement order
	ops       []wal.Op      // flattened logical ops, in execution order
	undone    int           // ops reverted in memory, counted from the tail
	commitRec *wal.Record   // the commit record once appended
	abortRec  *wal.Record   // the abort end record once appended
}

// ID returns the transaction ID (used as the lock owner).
func (t *Txn) ID() int64 { return t.id }

// Lock acquires a lock in the given mode (blocking), remembering it for
// release at commit/abort. Callers must acquire keys in a consistent
// global order; see package lock for the deadlock discipline. If the
// lock wait times out, the transaction is aborted (it is the victim) and
// Lock reports false; the caller should unwind and retry.
func (t *Txn) Lock(p *sim.Proc, key lock.Key, mode lock.Mode) bool {
	if t.done {
		return false
	}
	_, ok := t.m.Locks.Acquire(p, t.id, key, mode)
	if !ok {
		t.Abort()
		return false
	}
	t.held = append(t.held, key)
	return true
}

// Active reports whether the transaction can still do work (not yet
// committed, aborted, or killed as a victim).
func (t *Txn) Active() bool { return !t.done }

// LogWrite accounts bytes of log records generated by a modification
// with no logical payload (metadata-only records).
func (t *Txn) LogWrite(bytes int64) {
	t.LogOp(bytes, wal.PageID{}, nil)
}

// LogOp registers one modification: bytes of log records, the page the
// record covers, and the logical ops needed to undo it. Ops are applied
// by the caller before registration; here they only gain their global
// sequence numbers and join the transaction's undo chain.
func (t *Txn) LogOp(bytes int64, page wal.PageID, ops []wal.Op) {
	t.logBytes += bytes
	if !t.m.Recording() {
		return
	}
	for i := range ops {
		ops[i].Seq = t.m.Log.NextSeq()
	}
	t.recs = append(t.recs, &wal.Record{Type: wal.RecUpdate, Txn: t.id, Bytes: bytes, Page: page, Ops: ops})
	t.ops = append(t.ops, ops...)
}

// Commit makes the transaction durable (waiting on the group commit) and
// releases all locks. It reports whether durability was reached: false
// means the log stopped or crashed first and the transaction must be
// treated as uncommitted.
func (t *Txn) Commit(p *sim.Proc) bool {
	if t.done {
		return false
	}
	t.done = true
	var err error
	if t.m.Recording() {
		recs := make([]*wal.Record, 0, len(t.recs)+2)
		recs = append(recs, &wal.Record{Type: wal.RecBegin, Txn: t.id})
		recs = append(recs, t.recs...)
		t.commitRec = &wal.Record{Type: wal.RecCommit, Txn: t.id, Bytes: wal.RecHeaderBytes}
		recs = append(recs, t.commitRec)
		lsn := t.m.Log.AppendBatch(recs) // logBytes + header: same byte count as the untyped path
		if h := t.m.Log.AppendGapHook; h != nil {
			h()
		}
		_, err = t.m.Log.WaitDurable(p, lsn)
	} else {
		_, err = t.m.Log.Commit(p, t.logBytes)
	}
	if err == nil && t.m.CommitWait != nil {
		// Locally durable; now wait for replica acknowledgements per the
		// commit mode. Locks are still held, so the commit-LSN order seen
		// by replicas equals the conflict order.
		lsn := t.m.Log.AppendedLSN()
		if t.commitRec != nil {
			lsn = t.commitRec.LSN
		}
		if werr := t.m.CommitWait(p, lsn); werr != nil {
			// Durable-but-unacknowledged: report failure to the client
			// (it must treat the outcome as unknown) without counting an
			// abort — recovery and replicas will both see it committed.
			t.releaseAll()
			t.m.Ctr.TxnCommits++
			t.m.Ctr.ReplUnackedCommits++
			return false
		}
	}
	t.releaseAll()
	if err != nil {
		// The log is gone: the transaction is a loser and counts as an
		// abort (recovery will roll it back).
		t.m.Ctr.TxnAborts++
		return false
	}
	t.m.Ctr.TxnCommits++
	return true
}

// Abort rolls the transaction back: compensation log records are written
// (the same byte volume as the forward records) but the abort does not
// wait for a flush. Under recovery bookkeeping the in-memory image is
// actually reverted, op by op in reverse order, and typed CLRs plus an
// abort end record enter the log; the forward records themselves never
// do (they are buffered until commit), so an aborted transaction leaves
// nothing for restart to undo.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	if t.m.Recording() {
		for {
			if _, ok := t.UndoNext(); !ok {
				break
			}
		}
		clrs := make([]*wal.Record, 0, len(t.recs)+1)
		for i := len(t.recs) - 1; i >= 0; i-- {
			f := t.recs[i]
			clrs = append(clrs, &wal.Record{Type: wal.RecCLR, Txn: t.id, Bytes: f.Bytes, Page: f.Page})
		}
		// The abort end record carries the insert residue: rolled-back
		// inserts leave the nominal high-water mark bumped (and possibly a
		// materialized ghost row), which replicas can only learn from the
		// shipped stream via this record — the forward records never enter
		// the log (they are buffered until commit).
		var residue []wal.Op
		for _, op := range t.ops {
			if op.Kind == wal.OpInsert {
				residue = append(residue, op)
			}
		}
		t.abortRec = &wal.Record{Type: wal.RecAbort, Txn: t.id, Residue: residue}
		clrs = append(clrs, t.abortRec)
		t.m.Log.AppendBatch(clrs)
	} else {
		t.m.Log.Append(t.logBytes)
	}
	t.releaseAll()
	t.m.Ctr.TxnAborts++
}

// Recs returns the transaction's forward update records (Recording only).
func (t *Txn) Recs() []*wal.Record { return t.recs }

// Ops returns the transaction's logical ops in execution order.
func (t *Txn) Ops() []wal.Op { return t.ops }

// CommitRec returns the commit record, nil if the transaction never
// reached Commit.
func (t *Txn) CommitRec() *wal.Record { return t.commitRec }

// AddAbortResidue appends an op to the abort end record's residue after
// the fact — for the victim-killed-mid-insert path, where the abort runs
// inside the lock wait (before the caller can register the op) yet the
// nominal append already happened and must reach replicas. No proc
// parks between the abort's AppendBatch and this attachment, so the
// record cannot have been flushed (let alone shipped) without it.
func (t *Txn) AddAbortResidue(op wal.Op) {
	if t.abortRec != nil {
		t.abortRec.Residue = append(t.abortRec.Residue, op)
	}
}

// UndoneOps returns how many ops have been reverted (from the tail).
func (t *Txn) UndoneOps() int { return t.undone }

// PeekUndo returns the op UndoNext would revert, without reverting it.
func (t *Txn) PeekUndo() (wal.Op, bool) {
	i := len(t.ops) - 1 - t.undone
	if i < 0 {
		return wal.Op{}, false
	}
	return t.ops[i], true
}

// UndoNext reverts the most recent not-yet-undone op against the
// in-memory image and returns it; ok is false once the transaction is
// fully undone. Ops are only ever reverted from the tail backwards, so
// repeated recoveries cannot double-revert.
func (t *Txn) UndoNext() (wal.Op, bool) {
	i := len(t.ops) - 1 - t.undone
	if i < 0 {
		return wal.Op{}, false
	}
	t.ops[i].Undo()
	t.undone++
	return t.ops[i], true
}

func (t *Txn) releaseAll() {
	// Release in reverse acquisition order.
	for i := len(t.held) - 1; i >= 0; i-- {
		t.m.Locks.Release(t.id, t.held[i])
	}
	t.held = t.held[:0]
}
