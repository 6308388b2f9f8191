package repl

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/iodev"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrArchiveGap is returned by RecoverTo when a segment needed for the
// requested target was destroyed (the archive-loss fault axis) and no
// later snapshot covers the hole.
var ErrArchiveGap = errors.New("repl: archived WAL segment missing for requested recovery target")

// Segment is one archived run of the primary's durable record stream,
// covering LSNs in (From, To].
type Segment struct {
	From, To int64
	Bytes    int64
	Records  []*wal.Record
	Sealed   bool
	Dropped  bool // destroyed by the archive-loss fault axis
}

// Snapshot is an incremental backup: a deep image of every table plus
// the in-flight (update-logged but uncommitted) transaction state at a
// record boundary, so PITR replays only the archive tail past it.
type Snapshot struct {
	LSN     int64
	Bytes   int64
	images  map[int]*storage.TableImage
	pending map[int64][]wal.Op
	cellSeq map[cellKey]int64 // per-cell write watermark at the snapshot
}

// Archiver continuously archives the primary's durable WAL into sealed
// segments and takes a snapshot every snapshotEvery seals. It
// maintains its own shadow dataset image (a pure applyState) purely so
// snapshots can be captured at any boundary without touching the
// primary's or any standby's image.
type Archiver struct {
	c      *Cluster
	reader *wal.StreamReader
	shadow *applyState

	segs    []*Segment
	snaps   []*Snapshot
	cur     *Segment
	lastLSN int64 // archive horizon: highest archived record LSN
	seals   int
}

func newArchiver(c *Cluster) *Archiver {
	return &Archiver{
		c:      c,
		reader: c.Primary.Log.NewStreamReader(),
		shadow: newApplyState(c.Cfg.NewImage()),
	}
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
		a.seal()
	}
	if a.cur == nil {
		a.cur = &Segment{From: a.lastLSN, To: a.lastLSN}
	}
	a.cur.Records = append(a.cur.Records, r)
	a.cur.Bytes += r.Bytes
	a.cur.To = r.LSN
	a.lastLSN = r.LSN
	a.shadow.Apply(r)
}

func (a *Archiver) seal() {
	a.cur.Sealed = true
	a.segs = append(a.segs, a.cur)
	a.c.Primary.Ctr.ArchivedSegments++
	a.c.Primary.Ctr.ArchivedBytes += a.cur.Bytes
	a.cur = nil
	a.seals++
	if a.seals%snapshotEvery == 0 {
		a.snapshot()
	}
}

// snapshot captures the shadow image and in-flight transaction state at
// the current archive horizon.
func (a *Archiver) snapshot() {
	s := &Snapshot{
		LSN:     a.lastLSN,
		images:  make(map[int]*storage.TableImage),
		pending: make(map[int64][]wal.Op),
		cellSeq: make(map[cellKey]int64, len(a.shadow.cellSeq)),
	}
	for k, v := range a.shadow.cellSeq {
		s.cellSeq[k] = v
	}
	for _, t := range a.shadow.db.Tables {
		img := t.CaptureImage()
		s.images[t.ID] = img
		for _, c := range img.Cols {
			s.Bytes += int64(len(c)) * 8
		}
	}
	for id, ops := range a.shadow.pending {
		s.pending[id] = append([]wal.Op(nil), ops...)
	}
	a.snaps = append(a.snaps, s)
}

// Horizon returns the highest archived LSN (the latest valid PITR target).
func (a *Archiver) Horizon() int64 { return a.lastLSN }

// dropOldest destroys the oldest surviving sealed segment (the
// archive-loss fault axis), reporting whether one existed.
func (a *Archiver) dropOldest() bool {
	for _, s := range a.segs {
		if s.Sealed && !s.Dropped {
			s.Dropped = true
			s.Records = nil
			return true
		}
	}
	return false
}

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
// through the target. Restore I/O (snapshot pages plus segment bytes)
// is charged to dev when p and dev are non-nil — the restore target
// machine's device. Returns the restored database for inspection.
//
// The target must lie within the archive horizon; a destroyed segment
// inside the replay range fails with ErrArchiveGap (a snapshot past the
// hole narrows the replay range and can mask it, which is exactly the
// retention interplay the archive-loss axis probes).
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
	for _, s := range a.snaps {
		if s.LSN <= lsn && s.LSN > rep.SnapLSN {
			rep.SnapLSN = s.LSN
			rep.LandedLSN = s.LSN
		}
	}
	if rep.SnapLSN > 0 {
		var snap *Snapshot
		for _, s := range a.snaps {
			if s.LSN == rep.SnapLSN {
				snap = s
			}
		}
		for _, t := range db.Tables {
			if img := snap.images[t.ID]; img != nil {
				t.RestoreImage(img)
			}
		}
		for id, ops := range snap.pending {
			state.pending[id] = append([]wal.Op(nil), ops...)
		}
		for k, v := range snap.cellSeq {
			state.cellSeq[k] = v
		}
		if p != nil && dev != nil {
			dev.Read(p, snap.Bytes)
		}
	}
	segs := append(append([]*Segment(nil), a.segs...), nil)
	segs[len(segs)-1] = a.cur
	for _, seg := range segs {
		if seg == nil || seg.To <= rep.SnapLSN || seg.From >= lsn {
			continue
		}
		if seg.Dropped {
			return nil, nil, fmt.Errorf("%w: segment (%d, %d]", ErrArchiveGap, seg.From, seg.To)
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
	rep.Txns = state.appliedTxns
	rep.Digest = engine.DigestDB(db)
	if p != nil {
		rep.Elapsed = sim.Duration(p.Now() - start)
	}
	a.c.Primary.Ctr.PITRRestores++
	return db, rep, nil
}
