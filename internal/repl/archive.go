package repl

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/iodev"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Segment is one archived run of the primary's durable record stream,
// covering LSNs in (From, To].
type Segment struct {
	From, To int64
	Bytes    int64
	Records  []*wal.Record
}

// Archiver continuously archives the primary's durable WAL into sealed
// segments. Every snapshotEvery-th sealed segment's To LSN is a
// snapshot: an incremental backup whose content is, by construction,
// the pure replay of the archive through that LSN, so RecoverTo rebuilds
// it rather than the archiver keeping a copy.
type Archiver struct {
	c      *Cluster
	reader *wal.StreamReader

	segs    []*Segment // sealed, in LSN order
	cur     *Segment
	lastLSN int64 // archive horizon: highest archived record LSN
}

func newArchiver(c *Cluster) *Archiver {
	return &Archiver{c: c, reader: c.Primary.Log.NewStreamReader()}
}

// run spawns the archiving proc. It consumes no simulated resources —
// the model is an archiver streaming the WAL to external storage off
// the database's critical path — so enabling it never perturbs the
// workload timeline.
func (a *Archiver) run() {
	a.c.sm.Spawn("repl-archive", func(p *sim.Proc) {
		for {
			batch, ok := a.reader.NextBatch(p)
			for _, r := range batch {
				a.archive(r)
			}
			if !ok {
				return
			}
		}
	})
}

func (a *Archiver) archive(r *wal.Record) {
	// Seal only when the incoming record's LSN strictly advances past the
	// segment: zero-byte records (begin, abort end records) share their
	// predecessor's end LSN, and splitting such a run across a segment —
	// or snapshotting inside it — would strand the trailing records on
	// the wrong side of the boundary during replay.
	if a.cur != nil && a.cur.Bytes >= archiveSegBytes && r.LSN > a.cur.To {
		a.segs = append(a.segs, a.cur)
		a.cur = nil
	}
	if a.cur == nil {
		a.cur = &Segment{From: a.lastLSN, To: a.lastLSN}
	}
	a.cur.Records = append(a.cur.Records, r)
	a.cur.Bytes += r.Bytes
	a.cur.To = r.LSN
	a.lastLSN = r.LSN
}

// Horizon returns the highest archived LSN (the latest valid PITR target).
func (a *Archiver) Horizon() int64 { return a.lastLSN }

// PITRReport describes one point-in-time restore.
type PITRReport struct {
	TargetLSN int64
	LandedLSN int64 // last record applied — equals TargetLSN when the target is a record boundary
	SnapLSN   int64 // snapshot the restore started from (0 = empty base)
	Segments  int   // archived segments read
	Records   int   // records replayed
	Txns      int64 // committed transactions replayed
	Digest    uint64
	Elapsed   sim.Duration
}

func (r *PITRReport) String() string {
	return fmt.Sprintf("pitr: landed at LSN %d (target %d) from snapshot LSN %d, %d segments, %d records, %d txns, %.1fms, digest %016x",
		r.LandedLSN, r.TargetLSN, r.SnapLSN, r.Segments, r.Records, r.Txns, float64(r.Elapsed)/1e6, r.Digest)
}

// CommitLSNNear returns the durable commit-record LSN nearest frac
// (0..1) of the primary's durable LSN — a well-defined point-in-time
// recovery target. Returns 0 when no commit is durable.
func (c *Cluster) CommitLSNNear(frac float64) int64 {
	flushed := c.Primary.Log.FlushedLSN()
	target := int64(float64(flushed) * frac)
	var best, bestDist int64 = 0, -1
	for _, r := range c.Primary.Log.Records() {
		if r.Type != wal.RecCommit || r.LSN <= 0 || r.LSN > flushed {
			continue
		}
		dist := r.LSN - target
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = r.LSN, dist
		}
	}
	return best
}

// VerifyPITR checks a completed restore against ground truth: the
// restore landed exactly at the requested LSN, and its digest equals an
// independent pure replay of the primary's durable log prefix through
// that LSN onto a fresh dataset image.
func (a *Archiver) VerifyPITR(rep *PITRReport) error {
	if rep.LandedLSN != rep.TargetLSN {
		return fmt.Errorf("repl: pitr landed at LSN %d, requested %d", rep.LandedLSN, rep.TargetLSN)
	}
	if want := replayDigest(a.c.Cfg.NewImage(), a.c.Primary.Log.Records(), rep.TargetLSN); rep.Digest != want {
		return fmt.Errorf("repl: pitr digest %016x != replay of primary log through LSN %d (%016x)",
			rep.Digest, rep.TargetLSN, want)
	}
	return nil
}

// RecoverTo restores a fresh dataset image to the requested LSN: load
// the latest snapshot at or before it, then replay archived records
// through the target. Loading the snapshot replays the archive through
// its LSN uncharged and reads the rebuilt image back; restore I/O (that
// image plus the tail's segment bytes) is charged to dev when p and dev
// are non-nil — the restore target machine's device. Returns the
// restored database for inspection.
func (a *Archiver) RecoverTo(p *sim.Proc, dev *iodev.Device, lsn int64) (*engine.Database, *PITRReport, error) {
	if lsn > a.lastLSN {
		return nil, nil, fmt.Errorf("repl: recovery target LSN %d beyond archive horizon %d", lsn, a.lastLSN)
	}
	var start sim.Time
	if p != nil {
		start = p.Now()
	}
	db := a.c.Cfg.NewImage()
	state := newApplyState(db)
	rep := &PITRReport{TargetLSN: lsn}
	for i := snapshotEvery - 1; i < len(a.segs) && a.segs[i].To <= lsn; i += snapshotEvery {
		rep.SnapLSN = a.segs[i].To
	}
	var snapTxns int64
	if rep.SnapLSN > 0 {
		for _, seg := range a.segs {
			if seg.To > rep.SnapLSN {
				break
			}
			for _, r := range seg.Records {
				state.Apply(r)
			}
		}
		snapTxns = state.appliedTxns
		rep.LandedLSN = rep.SnapLSN
		if p != nil && dev != nil {
			var bytes int64
			for _, t := range db.Tables {
				bytes += int64(t.NCols()) * t.ActualRows() * 8
			}
			dev.Read(p, bytes)
		}
	}
	segs := a.segs
	if a.cur != nil {
		segs = append(segs[:len(segs):len(segs)], a.cur)
	}
	for _, seg := range segs {
		if seg.To <= rep.SnapLSN || seg.From >= lsn {
			continue
		}
		rep.Segments++
		if p != nil && dev != nil {
			dev.Read(p, seg.Bytes)
		}
		for _, r := range seg.Records {
			if r.LSN <= rep.SnapLSN || r.LSN > lsn {
				continue
			}
			state.Apply(r)
			rep.Records++
			rep.LandedLSN = r.LSN
		}
	}
	rep.Txns = state.appliedTxns - snapTxns
	rep.Digest = engine.DigestDB(db)
	if p != nil {
		rep.Elapsed = sim.Duration(p.Now() - start)
	}
	return db, rep, nil
}
