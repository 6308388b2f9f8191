package repl

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
	"repro/internal/workload/asdb"
)

// refApply is the applier before its single in-flight buffer: pending
// updates kept per transaction in a map, a commit applying its own
// transaction's entry, an abort deleting it. A crash-cut transaction's
// entry simply stays in the map, never applied.
type refApply struct {
	*applyState
	pending map[int64][]wal.Op
}

func (r *refApply) Apply(rec *wal.Record) {
	switch rec.Type {
	case wal.RecUpdate:
		r.pending[rec.Txn] = append(r.pending[rec.Txn], rec.Ops...)
	case wal.RecCommit:
		for _, op := range r.pending[rec.Txn] {
			r.applyOp(op)
		}
		delete(r.pending, rec.Txn)
	case wal.RecAbort:
		for _, op := range rec.Residue {
			r.applyGhost(op)
		}
		delete(r.pending, rec.Txn)
	}
}

// streamMix counts what a generated stream exercises.
type streamMix struct {
	commits, residueAborts, cutThenNext int
}

// genStream writes a log image the way the engine does: each
// transaction one contiguous batch — BEGIN, updates, COMMIT for a
// commit; CLRs and an ABORT carrying the insert residue for a rollback,
// its forward records never logged — with fuzzy-checkpoint records
// between batches. A cut transaction is a commit batch a crash truncated
// after some of its updates: its COMMIT never comes, and the next
// transaction's batch follows — sometimes a read-only one, whose commit
// must not apply the cut updates. LSNs are assigned as AppendBatch would.
func genStream(rng *rand.Rand, db *engine.Database, txns int) ([]*wal.Record, streamMix) {
	var (
		recs []*wal.Record
		mix  streamMix
		lsn  int64
		seq  int64
		cut  bool
	)
	// nextRow mirrors the primary's actual row count, which a cut
	// transaction's materialized inserts advance too.
	nextRow := map[int]int64{}
	for _, t := range db.Tables {
		nextRow[t.ID] = t.ActualRows()
	}
	emit := func(batch ...*wal.Record) {
		for _, r := range batch {
			lsn += r.Bytes
			r.LSN = lsn
			recs = append(recs, r)
		}
	}
	genOp := func() wal.Op {
		t := db.Tables[rng.Intn(len(db.Tables))]
		seq++
		switch k := rng.Intn(10); {
		case k < 6 && t.ActualRows() > 0:
			col := rng.Intn(t.NCols())
			// A value the column already holds, so string columns keep
			// valid pool references.
			v := t.Get(rng.Int63n(t.ActualRows()), col)
			return wal.Op{Kind: wal.OpSet, T: t, Row: rng.Int63n(t.ActualRows()), Col: col, New: v, Seq: seq}
		case k < 9 && t.ActualRows() > 0:
			op := wal.Op{Kind: wal.OpInsert, T: t, Seq: seq,
				Img: t.Row(rng.Int63n(t.ActualRows()), nil), Indexed: rng.Intn(3) > 0}
			if rng.Intn(2) == 0 {
				op.Materialized = true
				op.Row = nextRow[t.ID]
				nextRow[t.ID]++
			}
			return op
		default:
			return wal.Op{Kind: wal.OpDelete, T: t, Seq: seq}
		}
	}
	for id := int64(1); id <= int64(txns); id++ {
		if rng.Intn(8) == 0 {
			emit(&wal.Record{Type: wal.RecCkptBegin}, &wal.Record{Type: wal.RecCkptEnd})
		}
		if cut {
			mix.cutThenNext++
			cut = false
		}
		var ups []*wal.Record
		var residue []wal.Op
		// Read-only transactions log a commit batch with no updates.
		for n := rng.Intn(5); n > 0; n-- {
			ops := make([]wal.Op, 1+rng.Intn(3))
			for i := range ops {
				ops[i] = genOp()
				if ops[i].Kind == wal.OpInsert {
					residue = append(residue, ops[i])
				}
			}
			ups = append(ups, &wal.Record{Type: wal.RecUpdate, Txn: id, Bytes: 100 + rng.Int63n(400),
				Page: wal.PageID{File: ops[0].T.Data.ID, Page: rng.Int63n(64)}, Ops: ops})
		}
		switch fate := rng.Intn(10); {
		case fate < 6:
			emit(&wal.Record{Type: wal.RecBegin, Txn: id})
			emit(ups...)
			emit(&wal.Record{Type: wal.RecCommit, Txn: id, Bytes: wal.RecHeaderBytes})
			mix.commits++
		case fate < 8:
			for i := len(ups) - 1; i >= 0; i-- {
				emit(&wal.Record{Type: wal.RecCLR, Txn: id, Bytes: ups[i].Bytes, Page: ups[i].Page})
			}
			emit(&wal.Record{Type: wal.RecAbort, Txn: id, Residue: residue})
			if len(residue) > 0 {
				mix.residueAborts++
			}
		default:
			emit(&wal.Record{Type: wal.RecBegin, Txn: id})
			if len(ups) > 0 {
				emit(ups[:1+rng.Intn(len(ups))]...)
				cut = true
			}
		}
	}
	return recs, mix
}

// TestApplierMatchesPerTxnMap drives the single-buffer applier and the
// map-based reference over generated streams — commits, aborts carrying
// residue, and transactions cut short by a crash and followed by
// another — and requires equal replay digests at the end of each stream
// and at a cut LSN inside it.
func TestApplierMatchesPerTxnMap(t *testing.T) {
	acfg := asdb.Config{SF: 1, ActualRowsPerSF: 2, Seed: 1}
	newImage := func() *engine.Database { return asdb.Build(acfg).DB }
	var total streamMix
	for seed := int64(1); seed <= 12; seed++ {
		recs, mix := genStream(rand.New(rand.NewSource(seed)), newImage(), 150)
		total.commits += mix.commits
		total.residueAborts += mix.residueAborts
		total.cutThenNext += mix.cutThenNext
		end := recs[len(recs)-1].LSN
		for _, through := range []int64{end / 2, end} {
			want := refReplayDigest(newImage(), recs, through)
			if got := replayDigest(newImage(), recs, through); got != want {
				t.Fatalf("seed %d through LSN %d: applier digest %016x, per-transaction map %016x", seed, through, got, want)
			}
		}
	}
	if total.commits == 0 || total.residueAborts == 0 || total.cutThenNext == 0 {
		t.Fatalf("streams exercised %+v; want commits, residue aborts and cut transactions", total)
	}
}

// refReplayDigest is replayDigest through the reference applier.
func refReplayDigest(img *engine.Database, recs []*wal.Record, through int64) uint64 {
	r := &refApply{applyState: newApplyState(img), pending: make(map[int64][]wal.Op)}
	for _, rec := range recs {
		if rec.LSN > 0 && rec.LSN <= through {
			r.Apply(rec)
		}
	}
	return engine.DigestDB(img)
}
