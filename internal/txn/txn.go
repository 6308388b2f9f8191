// Package txn implements transaction lifecycle over the lock manager and
// write-ahead log: strict two-phase locking, log-record accounting, and
// group-committed durability.
package txn

import (
	"slices"
	"unsafe"

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

	// batch is Commit's and Abort's record batch under Recording, reused
	// from one transaction to the next: AppendBatch keeps the records, not
	// the slice.
	batch []*wal.Record

	// Under Recording a transaction's Txn, its log records, the first
	// slots of its record list, and the copies of its ops and their row
	// images are cut from these slabs: the history (all, the log image,
	// the archive) keeps every one of them until the cell ends, so a chunk
	// lives no longer than its elements would.
	txns     slab[Txn]
	recs     slab[wal.Record]
	recLists slab[*wal.Record]
	ops      slab[wal.Op]
	imgs     slab[int64]
}

// A slab chunk holds slabLen elements, or as many as fill slabBytes if
// that is more, so a chunk of row-image words or record pointers is about
// as large as a chunk of the ops and records they belong to.
const (
	slabLen   = 256
	slabBytes = 16 << 10
)

// slab hands out elements of a chunk, allocating the next chunk only when
// one is used up.
type slab[T any] struct {
	chunk []T
}

// chunkLen returns the number of elements in one chunk of s.
func (s *slab[T]) chunkLen() int {
	var zero T
	return max(slabLen, slabBytes/int(unsafe.Sizeof(zero)))
}

// one returns the next zero element.
func (s *slab[T]) one() *T {
	return &s.window(1)[:1][0]
}

// window returns an empty slice over the next n zero elements. Its
// capacity stops at n, so a list that outgrows its window reallocates
// privately instead of writing into its neighbour's. A window larger than
// a chunk is a private allocation of exactly n.
func (s *slab[T]) window(n int) []T {
	if len(s.chunk) < n {
		if n > s.chunkLen() {
			return make([]T, 0, n)
		}
		s.chunk = make([]T, s.chunkLen())
	}
	w := s.chunk[0:0:n]
	s.chunk = s.chunk[n:]
	return w
}

// clone returns a slab copy of src, nil if src is empty.
func (s *slab[T]) clone(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(s.window(len(src)), src...)
}

// record returns a slab copy of r.
func (m *Manager) record(r wal.Record) *wal.Record {
	p := m.recs.one()
	*p = r
	return p
}

// NewManager creates a transaction manager.
func NewManager(locks *lock.Manager, log *wal.Log, ctr *metrics.Counters) *Manager {
	return &Manager{Locks: locks, Log: log, Ctr: ctr}
}

// Recording reports whether crash-recovery bookkeeping is on.
func (m *Manager) Recording() bool { return m.Log.Recording }

// All returns every transaction begun (Recording only).
func (m *Manager) All() []*Txn { return m.all }

// Begin starts a transaction in a Txn of its own.
func (m *Manager) Begin() *Txn { return m.BeginIn(nil) }

// BeginIn starts a transaction in t's storage, which the caller owns: once
// t's previous transaction has ended, the handle returned is t again —
// valid until Commit or Abort returns — and the held-lock list keeps its
// capacity from one transaction to the next. A nil t gets a new Txn, and
// so does every call while Recording, because the history retains each
// transaction (that Txn is cut from the Manager's slab); the new Txn
// still takes over an ended t's held-lock list, and t keeps its records
// in All().
func (m *Manager) BeginIn(t *Txn) *Txn {
	m.nextID++
	// t's transaction, if it was dropped without being ended, keeps its
	// locks and its list as it would have in a Txn of its own.
	reusable := t != nil && (t.m == nil || t.done)
	if m.Recording() {
		n := m.txns.one()
		*n = Txn{m: m, id: m.nextID}
		if reusable {
			n.held, t.held = t.held[:0], nil
		}
		if len(m.all) == cap(m.all) {
			m.all = slices.Grow(m.all, max(len(m.all), 1)) // double
		}
		m.all = append(m.all, n)
		return n
	}
	if !reusable {
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

	// Recovery bookkeeping (Recording only). The records' ops, in
	// statement order, are the transaction's ops in execution order.
	recs      []*wal.Record // forward update records, in statement order
	nops      int           // ops across recs
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
// by the caller before registration. Under Recording the record keeps a
// copy of ops, each op's Img copied too, cut from the Manager's slabs;
// the copies gain their global sequence numbers and join the
// transaction's undo chain. The caller keeps its slice and its images
// and may reuse them as soon as LogOp returns.
func (t *Txn) LogOp(bytes int64, page wal.PageID, ops []wal.Op) {
	t.logBytes += bytes
	if !t.m.Recording() {
		return
	}
	own := t.m.ops.clone(ops)
	for i := range own {
		own[i].Seq = t.m.Log.NextSeq()
		own[i].Img = t.m.imgs.clone(own[i].Img)
	}
	if t.recs == nil {
		t.recs = t.m.recLists.window(4)
	}
	t.recs = append(t.recs, t.m.record(wal.Record{Type: wal.RecUpdate, Txn: t.id, Bytes: bytes, Page: page, Ops: own}))
	t.nops += len(own)
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
		recs := append(t.m.batch[:0], t.m.record(wal.Record{Type: wal.RecBegin, Txn: t.id}))
		recs = append(recs, t.recs...)
		t.commitRec = t.m.record(wal.Record{Type: wal.RecCommit, Txn: t.id, Bytes: wal.RecHeaderBytes})
		recs = append(recs, t.commitRec)
		lsn := t.m.Log.AppendBatch(recs) // logBytes + header: same byte count as the untyped path
		t.m.batch = recs
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
		clrs := t.m.batch[:0]
		for i := len(t.recs) - 1; i >= 0; i-- {
			f := t.recs[i]
			clrs = append(clrs, t.m.record(wal.Record{Type: wal.RecCLR, Txn: t.id, Bytes: f.Bytes, Page: f.Page}))
		}
		// The abort end record carries the insert residue: rolled-back
		// inserts leave the nominal high-water mark bumped (and possibly a
		// materialized ghost row), which replicas can only learn from the
		// shipped stream via this record — the forward records never enter
		// the log (they are buffered until commit). Its ops share their
		// images with the forward records' copies.
		n := 0
		for _, r := range t.recs {
			for _, op := range r.Ops {
				if op.Kind == wal.OpInsert {
					n++
				}
			}
		}
		residue := t.m.ops.window(n)
		for _, r := range t.recs {
			for _, op := range r.Ops {
				if op.Kind == wal.OpInsert {
					residue = append(residue, op)
				}
			}
		}
		t.abortRec = t.m.record(wal.Record{Type: wal.RecAbort, Txn: t.id, Residue: residue})
		clrs = append(clrs, t.abortRec)
		t.m.Log.AppendBatch(clrs)
		t.m.batch = clrs
	} else {
		t.m.Log.Append(t.logBytes)
	}
	t.releaseAll()
	t.m.Ctr.TxnAborts++
}

// Recs returns the transaction's forward update records (Recording only).
func (t *Txn) Recs() []*wal.Record { return t.recs }

// NumOps returns the number of logical ops the transaction registered
// (Recording only).
func (t *Txn) NumOps() int { return t.nops }

// CommitRec returns the commit record, nil if the transaction never
// reached Commit.
func (t *Txn) CommitRec() *wal.Record { return t.commitRec }

// AddAbortResidue appends an op to the abort end record's residue after
// the fact — for the victim-killed-mid-insert path, where the abort runs
// inside the lock wait (before the caller can register the op) yet the
// nominal append already happened and must reach replicas. No proc
// parks between the abort's AppendBatch and this attachment, so the
// record cannot have been flushed (let alone shipped) without it. The
// record keeps a copy of op.Img, as LogOp does; the residue's window is
// capped at the abort's own inserts, so growing it reallocates privately.
func (t *Txn) AddAbortResidue(op wal.Op) {
	if t.abortRec != nil {
		op.Img = t.m.imgs.clone(op.Img)
		t.abortRec.Residue = append(t.abortRec.Residue, op)
	}
}

// UndoneOps returns how many ops have been reverted (from the tail).
func (t *Txn) UndoneOps() int { return t.undone }

// PeekUndo returns the op UndoNext would revert, without reverting it:
// the undone-th op from the tail, found by walking the records backwards.
func (t *Txn) PeekUndo() (wal.Op, bool) {
	k := t.undone
	for i := len(t.recs) - 1; i >= 0; i-- {
		ops := t.recs[i].Ops
		if k < len(ops) {
			return ops[len(ops)-1-k], true
		}
		k -= len(ops)
	}
	return wal.Op{}, false
}

// UndoNext reverts the most recent not-yet-undone op against the
// in-memory image and returns it; ok is false once the transaction is
// fully undone. Ops are only ever reverted from the tail backwards, so
// repeated recoveries cannot double-revert.
func (t *Txn) UndoNext() (wal.Op, bool) {
	op, ok := t.PeekUndo()
	if ok {
		op.Undo()
		t.undone++
	}
	return op, ok
}

func (t *Txn) releaseAll() {
	// Release in reverse acquisition order.
	for i := len(t.held) - 1; i >= 0; i-- {
		t.m.Locks.Release(t.id, t.held[i])
	}
	t.held = t.held[:0]
}
