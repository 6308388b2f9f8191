package repl

import (
	"repro/internal/access"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
)

// applyState redoes a primary's typed record stream against an identical
// local dataset image. It is the committed-prefix interpretation of the
// ARIES log: update records accumulate per-transaction, a commit record
// applies them, an abort record applies only the transaction's ghost
// residue.
//
// Commit-LSN order is NOT always the per-cell write order: the engine
// locks by nominal row ID while the down-scaled tables alias many
// nominal rows onto one actual row, so two transactions can write the
// same physical cell under different locks and commit in the opposite
// order of their writes. Op.Seq (assigned at write registration) totally
// orders the writes to any one cell, so cell overwrites are gated on a
// per-cell Seq watermark — the same discipline restart recovery uses
// when redoing losers — and the image converges to the primary's
// last-writer-in-write-order state regardless of commit interleaving.
//
// The state is pure — no sim time, no I/O. Standby appliers charge
// device and buffer-pool costs separately (Cluster.chargeApply); PITR
// replay and its verifier use it bare.
type applyState struct {
	db      *engine.Database
	tables  map[int]*storage.Table
	indexes map[int][]*access.BTIndex // by table ID
	files   map[int]*storage.File     // by file ID, for page-charge remap

	// pending holds update ops whose transaction has not yet committed.
	pending map[int64][]wal.Op

	// cellSeq is the per-cell write watermark: the highest Op.Seq applied
	// to each (table, row, col). Older writes arriving later (commit-order
	// inversion under nominal-row lock aliasing) are stale and skipped.
	cellSeq map[cellKey]int64

	appliedTxns int64 // committed transactions applied
}

// cellKey names one physical cell across the catalog.
type cellKey struct {
	table int
	row   int64
	col   int
}

// newApplyState indexes the local catalog by the IDs the shipped records
// carry. Identical Build calls allocate identical table/index file IDs,
// so a primary record's table pointer remaps to the local replica of the
// same table by ID.
func newApplyState(db *engine.Database) *applyState {
	a := &applyState{
		db:      db,
		tables:  make(map[int]*storage.Table),
		indexes: make(map[int][]*access.BTIndex),
		files:   make(map[int]*storage.File),
		pending: make(map[int64][]wal.Op),
		cellSeq: make(map[cellKey]int64),
	}
	for _, t := range db.Tables {
		a.tables[t.ID] = t
		a.files[t.Data.ID] = t.Data
	}
	for _, ix := range db.BTrees {
		a.indexes[ix.Table.ID] = append(a.indexes[ix.Table.ID], ix)
		a.files[ix.File.ID] = ix.File
	}
	return a
}

// Apply interprets one record. Records must arrive in LSN order; the
// caller is responsible for not replaying a record twice (appliers take
// each shipped record once, PITR replays a clean range).
func (a *applyState) Apply(rec *wal.Record) {
	switch rec.Type {
	case wal.RecUpdate:
		a.pending[rec.Txn] = append(a.pending[rec.Txn], rec.Ops...)
	case wal.RecCommit:
		for _, op := range a.pending[rec.Txn] {
			a.applyOp(op)
		}
		delete(a.pending, rec.Txn)
		a.appliedTxns++
	case wal.RecAbort:
		// The transaction's forward work never applied here (its updates
		// are still pending), so there is nothing to undo — but rolled-back
		// inserts leave ghosts on the primary (high-water bumps, surviving
		// materialized rows, index entries), which the residue reproduces.
		for _, op := range rec.Residue {
			a.applyGhost(op)
		}
		delete(a.pending, rec.Txn)
	default:
		// Begin records carry no state; CLRs compensate forward records
		// this applier never applied; checkpoints are primary-local.
	}
}

// applyOp redoes one committed logical modification.
func (a *applyState) applyOp(op wal.Op) {
	t := a.tables[op.T.ID]
	if t == nil {
		return
	}
	switch op.Kind {
	case wal.OpSet:
		k := cellKey{table: op.T.ID, row: op.Row, col: op.Col}
		if op.Seq <= a.cellSeq[k] {
			return // stale: a later write to this cell already applied
		}
		a.cellSeq[k] = op.Seq
		t.Set(op.Row, op.Col, op.New)
	case wal.OpInsert:
		t.InsertNominalReplay(op.Img, op.Materialized, op.Row)
		a.maintainIndexes(t, op)
	case wal.OpDelete:
		t.DeleteNominal()
	}
}

// applyGhost reproduces a rolled-back insert: the nominal append stands
// with its live count immediately retracted, and — when the primary got
// as far as index maintenance before aborting — the index entries stand
// too (rollback does not remove them; they await ghost cleanup exactly as
// on the primary).
func (a *applyState) applyGhost(op wal.Op) {
	t := a.tables[op.T.ID]
	if t == nil || op.Kind != wal.OpInsert {
		return
	}
	t.InsertNominalReplay(op.Img, op.Materialized, op.Row)
	t.DeleteNominal()
	a.maintainIndexes(t, op)
}

// replayDigest is the verifiers' ground truth: the digest of img after a
// pure replay of every appended record in recs with LSN <= through.
func replayDigest(img *engine.Database, recs []*wal.Record, through int64) uint64 {
	a := newApplyState(img)
	for _, r := range recs {
		if r.LSN > 0 && r.LSN <= through {
			a.Apply(r)
		}
	}
	return engine.DigestDB(img)
}

func (a *applyState) maintainIndexes(t *storage.Table, op wal.Op) {
	if !op.Indexed || !op.Materialized {
		return
	}
	for _, ix := range a.indexes[t.ID] {
		ix.InsertActual(op.Row)
	}
}
