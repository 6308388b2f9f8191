package engine

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// RecoveryOptions arms a server for crash-recovery experiments.
type RecoveryOptions struct {
	// CkptInterval overrides the fuzzy-checkpoint cadence (0 keeps the
	// pool default).
	CkptInterval sim.Duration

	// MaxFlushBytes overrides the log's flush-batch cap (0 keeps the
	// 60 KB default). Small batches make a crash likely to land inside a
	// commit lump — the partially durable transactions ARIES undo exists
	// for.
	MaxFlushBytes int64

	// Crash selects the seeded crash point; a zero plan arms recovery
	// bookkeeping without crashing (used by the determinism test).
	Crash fault.CrashPlan
}

// ArmRecovery switches the server into crash-recovery mode: the WAL
// retains typed logical records, the buffer pool runs fuzzy checkpoints
// with per-page recLSN tracking and WAL-before-data, the transaction
// manager keeps the registry restart needs, and the configured crash
// point is wired into its hook. Must be called before Start. Baseline
// runs never call this, so none of the bookkeeping exists there.
func (s *Server) ArmRecovery(opt RecoveryOptions) {
	s.Log.Recording = true
	if opt.MaxFlushBytes > 0 {
		s.Log.MaxFlushBytes = opt.MaxFlushBytes
	}
	s.BP.ArmRecovery(s.Log)
	if opt.CkptInterval > 0 {
		s.BP.CheckpointInterval = opt.CkptInterval
	}
	s.armed = true
	s.liveAtArm = make(map[int]int64)
	for _, t := range s.DB.Tables {
		s.liveAtArm[t.ID] = t.LiveNominalRows()
	}
	if !opt.Crash.Enabled() {
		return
	}
	s.crasher = fault.NewCrasher(opt.Crash, s.Crash)
	s.Log.MidFlushHook = func() {
		s.crasher.Hit(fault.CrashMidFlush)
		if opt.Crash.Point == fault.CrashDuringUndo && !s.stopped &&
			s.Sim.Now() >= sim.Time(opt.Crash.At) && s.Log.BoundaryStraddlesCommit() {
			// The initial crash of a during-undo plan must leave undo work
			// for its interrupt to land in, so rather than crashing blindly
			// at At it waits for the first flush past At whose boundary
			// strands a partially durable commit — a guaranteed ARIES loser.
			s.Crash()
		}
	}
	s.Log.AppendGapHook = func() { s.crasher.Hit(fault.CrashAppendGap) }
	s.BP.CkptChunkHook = func() { s.crasher.Hit(fault.CrashMidCheckpoint) }
	if opt.Crash.Point == fault.CrashAtTime && opt.Crash.At > 0 {
		s.Sim.Spawn("crash-timer", func(p *sim.Proc) {
			p.Sleep(opt.Crash.At)
			s.Crash()
		})
	}
}

// Crash fails the server at the current simulated instant: the log
// freezes (an in-flight flush batch is lost when the crash lands
// mid-flush), background services stop — the telemetry registry with a
// last sample at the crash instant — and parked waiters are woken to
// observe the failure. A crash after a clean Stop is ignored, but a crash
// while recovery is in flight (the server is stopped yet not cleanly) is
// not: that is the during-undo crash point.
func (s *Server) Crash() {
	if s.crashed || s.cleanStop {
		return
	}
	s.crashed = true
	s.Ctr.Crashes++
	s.stopServices(s.Log.Crash)
}

// Crashed reports whether the server took a crash.
func (s *Server) Crashed() bool { return s.crashed }

// RecoveryReport summarizes one ARIES restart pass.
type RecoveryReport struct {
	CrashLSN    int64 // durable LSN at the crash
	LostRecords int   // appended-but-unflushed records wiped by the crash
	LostTxns    int   // losers with no durable trace (reverted silently)
	Winners     int   // durably committed transactions
	Losers      int   // losers with durable records (ARIES undo)
	LogScanned  int64 // log bytes read during analysis + redo
	RedoRecords int64
	RedoPages   int64
	UndoRecords int64
	CLRs        int64
	Elapsed     sim.Duration
	Interrupted bool // a during-undo crash cut this pass short
	Done        bool
}

// Recover runs ARIES restart after a crash: the durable log image is
// truncated at the flushed LSN, losers with no durable trace are wiped,
// and a recovery proc performs analysis (log scan from the last complete
// checkpoint), redo (page reads for every durable record past the
// durable page image), and undo (loser rollback with CLR writes),
// charging all I/O to the simulated device so recovery time responds to
// storage bandwidth and the blkio throttle. The caller runs the crashed
// simulation until no event is left before Recover and again after it
// (Run(sim.Forever)); Report.Done flips when the pass finishes. Recover is
// idempotent: a second pass finds every loser already ended and performs
// no new undo.
func (s *Server) Recover() *RecoveryReport {
	if !s.armed {
		panic("engine: Recover on a server without ArmRecovery")
	}
	rep := &RecoveryReport{}
	rep.LostRecords = s.Log.TruncateAtFlushed()
	flushed := s.Log.FlushedLSN()
	rep.CrashLSN = flushed
	s.crashed = false

	// Analysis over the durable image: transaction outcomes, compensation
	// coverage, and the last complete fuzzy checkpoint.
	committed := make(map[int64]bool)
	ended := make(map[int64]bool)
	comp := make(map[int64]bool) // forward LSNs already compensated by a durable CLR
	var lastCkpt *wal.Record
	for _, r := range s.Log.Records() {
		switch r.Type {
		case wal.RecCommit:
			committed[r.Txn] = true
		case wal.RecAbort:
			ended[r.Txn] = true
		case wal.RecCLR:
			if r.UndoOf > 0 {
				comp[r.UndoOf] = true
			}
		case wal.RecCkptEnd:
			lastCkpt = r
		}
	}

	// Classify the registry. Losers with no durable record never reached
	// the device in any form: their volatile effects are wiped in place,
	// with no recovery I/O — the durable image never knew them.
	var ariesLosers, volatile []*txn.Txn
	for _, t := range s.Txns.All() {
		id := t.ID()
		cr := t.CommitRec()
		if cr != nil && cr.LSN > 0 && committed[id] {
			rep.Winners++
			continue
		}
		if ended[id] {
			continue // in-flight abort or prior recovery already ended it
		}
		durableRecs := false
		for _, r := range t.Recs() {
			if r.LSN > 0 && r.LSN <= flushed {
				durableRecs = true
				break
			}
		}
		if !durableRecs {
			// Volatile loser (includes in-flight aborts whose CLR lump was
			// truncated: their memory image is already reverted, and
			// UndoNext skips what is already undone).
			if t.UndoneOps() < t.NumOps() {
				rep.LostTxns++
			}
			volatile = append(volatile, t)
			continue
		}
		rep.Losers++
		ariesLosers = append(ariesLosers, t)
	}
	// Volatile losers' writes can overlap: a commit that resolved
	// not-durable released its locks, so a later loser may have overwritten
	// the same cell. Physical undo (restore the pre-image) must therefore
	// follow global reverse op order across all of them, not
	// per-transaction order. Their ops all postdate any ARIES loser's ops
	// on shared cells (an ARIES loser held its locks into the crash), so
	// wiping them first is correct.
	for {
		var best *txn.Txn
		bestSeq := int64(-1)
		for _, t := range volatile {
			if op, ok := t.PeekUndo(); ok && op.Seq > bestSeq {
				bestSeq, best = op.Seq, t
			}
		}
		if best == nil {
			break
		}
		best.UndoNext()
	}
	// Undo newest-first (reverse begin order); loser write sets are
	// disjoint under strict 2PL, so this is both deterministic and
	// order-insensitive for the final state.
	sort.Slice(ariesLosers, func(i, j int) bool { return ariesLosers[i].ID() > ariesLosers[j].ID() })

	// redoLSN: the earliest recLSN in the last complete checkpoint's DPT
	// (everything older has a durable page image at least that fresh).
	redoLSN := int64(0)
	if lastCkpt != nil {
		redoLSN = lastCkpt.LSN
		for _, e := range lastCkpt.DPT {
			if e.RecLSN < redoLSN {
				redoLSN = e.RecLSN
			}
		}
	}

	s.Log.Restart()
	s.Sim.Spawn("recovery", func(p *sim.Proc) {
		stmt := &metrics.Counters{}
		prev := p.Attr()
		p.SetAttr(stmt)
		start := p.Now()
		finish := func() {
			rep.Elapsed = sim.Duration(p.Now() - start)
			metrics.ChargeWait(p, s.Ctr, metrics.WaitRecovery, rep.Elapsed)
			p.SetAttr(prev)
			s.QStats.Record("recovery", metrics.Exec{Elapsed: rep.Elapsed, Failed: rep.Interrupted, Stmt: stmt})
			rep.Done = true
		}

		// Analysis + redo scan the durable log from redoLSN once.
		rep.LogScanned = flushed - redoLSN
		if rep.LogScanned > 0 {
			s.Dev.Read(p, rep.LogScanned)
		}
		pagesRead := make(map[wal.PageID]bool)
		readPage := func(pg wal.PageID) {
			if pg.Zero() || pagesRead[pg] {
				return
			}
			pagesRead[pg] = true
			s.Dev.Read(p, storage.PageBytes)
			rep.RedoPages++
		}
		for _, r := range s.Log.Records() {
			if r.LSN < redoLSN || (r.Type != wal.RecUpdate && r.Type != wal.RecCLR) {
				continue
			}
			if r.Page.Zero() {
				continue
			}
			rep.RedoRecords++
			if s.BP.DurablePageLSN(r.Page.File, r.Page.Page) >= r.LSN {
				continue // durable image already reflects this record
			}
			readPage(r.Page)
		}

		// Undo: roll back each ARIES loser, newest record first, writing
		// one CLR per durable forward record and an abort end record,
		// flushed per transaction.
		for _, t := range ariesLosers {
			recs := t.Recs()
			opsFromTail := 0
			var clrs []*wal.Record
			for i := len(recs) - 1; i >= 0; i-- {
				r := recs[i]
				opsFromTail += len(r.Ops)
				for t.UndoneOps() < opsFromTail {
					t.UndoNext()
				}
				if r.LSN == 0 || r.LSN > flushed || comp[r.LSN] {
					continue // truncated or already compensated: no CLR
				}
				readPage(r.Page)
				rep.UndoRecords++
				clrs = append(clrs, &wal.Record{Type: wal.RecCLR, Txn: t.ID(), Bytes: r.Bytes, Page: r.Page, UndoOf: r.LSN})
				rep.CLRs++
				if s.crasher != nil {
					s.crasher.Hit(fault.CrashDuringUndo)
				}
				if s.crashed {
					rep.Interrupted = true
					finish()
					return
				}
			}
			clrs = append(clrs, &wal.Record{Type: wal.RecAbort, Txn: t.ID()})
			lsn := s.Log.AppendBatch(clrs)
			if _, err := s.Log.WaitDurable(p, lsn); err != nil {
				rep.Interrupted = true
				finish()
				return
			}
		}
		finish()
	})
	return rep
}

// CheckRecoveryInvariants verifies the recovered state against an
// independent replay of the logical op history: every durably committed
// transaction's effects are present, every loser is fully undone, and
// per-table live-row accounting matches the winners' net inserts. It
// returns nil when the image is consistent.
func (s *Server) CheckRecoveryInvariants() error {
	if !s.armed {
		return fmt.Errorf("recovery not armed")
	}
	flushed := s.Log.FlushedLSN()
	committed := make(map[int64]bool)
	for _, r := range s.Log.Records() {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = true
		}
	}
	type cellKey struct {
		t   *storage.Table
		row int64
		col int
	}
	// Expected value per touched cell: the last winner's post-image, or
	// the first toucher's pre-image when only losers wrote it. Ops are
	// replayed in global Seq order, which totally orders same-cell writes
	// under strict 2PL.
	type opRef struct {
		op     wal.Op
		winner bool
	}
	var all []opRef
	liveDelta := make(map[*storage.Table]int64)
	undoneShort := 0
	for _, t := range s.Txns.All() {
		cr := t.CommitRec()
		winner := cr != nil && cr.LSN > 0 && cr.LSN <= flushed && committed[t.ID()]
		if !winner && t.UndoneOps() < t.NumOps() {
			undoneShort++
		}
		for _, r := range t.Recs() {
			for _, op := range r.Ops {
				all = append(all, opRef{op: op, winner: winner})
				if winner {
					switch op.Kind {
					case wal.OpInsert:
						liveDelta[op.T]++
					case wal.OpDelete:
						liveDelta[op.T]--
					}
				}
			}
		}
	}
	if undoneShort > 0 {
		return fmt.Errorf("%d loser transactions not fully undone", undoneShort)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].op.Seq < all[j].op.Seq })
	base := make(map[cellKey]int64)
	final := make(map[cellKey]int64)
	haveFinal := make(map[cellKey]bool)
	for _, r := range all {
		if r.op.Kind != wal.OpSet {
			continue
		}
		k := cellKey{r.op.T, r.op.Row, r.op.Col}
		if _, seen := base[k]; !seen {
			base[k] = r.op.Old
		}
		if r.winner {
			final[k] = r.op.New
			haveFinal[k] = true
		}
	}
	bad := 0
	for k, b := range base {
		want := b
		if haveFinal[k] {
			want = final[k]
		}
		if got := k.t.Get(k.row, k.col); got != want {
			bad++
			if bad == 1 {
				return fmt.Errorf("cell %s[row %d, col %d] = %d, want %d",
					k.t.Schema.Name, k.row, k.col, got, want)
			}
		}
	}
	for _, t := range s.DB.Tables {
		want := s.liveAtArm[t.ID] + liveDelta[t]
		if got := t.LiveNominalRows(); got != want {
			return fmt.Errorf("table %s live rows = %d, want %d (loaded %d, winner delta %+d)",
				t.Schema.Name, got, want, s.liveAtArm[t.ID], liveDelta[t])
		}
	}
	return nil
}

// StateDigest hashes the full logical database image (cell values and
// row accounting); equal digests across repeated recoveries demonstrate
// idempotence.
func (s *Server) StateDigest() uint64 { return DigestDB(s.DB) }

// DigestDB hashes a database's logical image independent of any server —
// replication compares a primary's digest against a standby's, and PITR
// compares a restored image against the pre-crash one.
func DigestDB(db *Database) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, t := range db.Tables {
		w(int64(t.ID))
		w(t.NominalRows())
		w(t.LiveNominalRows())
		n := t.ActualRows()
		for c := range t.Schema.Cols {
			col := t.Col(c)
			for r := int64(0); r < n && r < int64(len(col)); r++ {
				w(col[r])
			}
		}
	}
	return h.Sum64()
}
