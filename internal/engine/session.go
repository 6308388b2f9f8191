package engine

import (
	"repro/internal/access"
	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Session is the engine's single request entrypoint: one client
// connection — an in-process workload driver or a network front-end
// handler — issuing transactional statements (Begin/Read/Update/.../
// Commit, or whole transactions via Exec) and analytical queries
// (Query) on its proc. The session carries the attribution hookup that
// charges waits and I/O to the running statement; retries and the
// statement deadline follow the server's Config.
//
// Transport-agnostic by construction: the harness drivers and the
// internal/serve network workers go through exactly this surface, so a
// request behaves identically whether it arrived in-process or over the
// simulated wire.
type Session struct {
	S   *Server
	P   *sim.Proc
	Ctx *access.Ctx // OLTP execution context; nil until BindCtx

	// LastCommitLSN is the WAL end-byte LSN of the session's most recent
	// durably acknowledged commit — 0 until one commits, and always 0
	// when recovery recording is off (commit records then carry no LSN).
	// The serving layer reads it to correlate a client-visible ack with
	// the exact log position the acked-commit safety checker audits.
	LastCommitLSN int64

	err    *QueryError // first statement failure since the last TakeErr
	closed bool

	// stmt is Exec's statement-attributed counter set, reset per attempt
	// and folded into the query statistics before the attempt returns.
	stmt metrics.Counters

	// Per-session scratch, reused from one statement to the next (see
	// DESIGN.md, "Object lifetimes on the OLTP path").
	tx  txn.Txn   // Begin's storage, reused outside recording
	cur *txn.Txn  // Begin's last transaction, the next Begin's prev
	rw  RowWriter // Update's writer, valid inside its callback
	ids []int64   // ReadRange's result, valid until the next statement
	row []int64   // RowBuf's buffer, valid until the Insert it feeds returns
}

// Open opens a session for the proc. Opening is free: the OLTP
// execution context (scheduler core, buffer handles, a forked RNG
// stream) binds separately via BindCtx, so query-only sessions never
// consume a per-connection random stream.
func (s *Server) Open(p *sim.Proc) *Session {
	s.sessOpened++
	s.sessActive++
	return &Session{S: s, P: p}
}

// BindCtx binds the session's OLTP execution context — what a connected
// client's login does. Closed-loop OLTP drivers bind at open time so
// the per-connection RNG stream is drawn from the root at the same
// position as in earlier revisions (fork order determines every
// downstream stream); it returns the session for chaining.
func (sess *Session) BindCtx() *Session {
	if sess.Ctx == nil {
		sess.Ctx = sess.S.NewCtx(sess.P)
	}
	return sess
}

// Close releases the session. Statement results remain valid; the
// session must not issue further statements.
func (sess *Session) Close() {
	if !sess.closed {
		sess.closed = true
		sess.S.sessActive--
	}
}

// QueryOptions tunes one analytical statement.
type QueryOptions struct {
	// MaxDOP mirrors the MAXDOP query hint (0 = server setting).
	MaxDOP int
	// GrantPct overrides the per-query grant cap when > 0 (the paper's
	// Section 8 query-memory-limit knob).
	GrantPct float64
	// G supplies the backoff-jitter stream for bounded retries of
	// retryable failures under Config.Retry. nil runs the statement
	// exactly once (how single-shot experiments pin timing).
	G *sim.RNG
}

// Query optimizes and executes a logical query on the session proc,
// retrying retryable failures with backoff when o.G is set and
// Config.Retry is on. Shutdown cancellation is terminal.
func (sess *Session) Query(q *opt.LNode, o QueryOptions) QueryResult {
	s, p := sess.S, sess.P
	res := s.runQuery(p, q, o.MaxDOP, o.GrantPct)
	if res.Err != nil && o.G != nil && s.Cfg.Retry {
		for attempt := 1; attempt < retryAttempts &&
			res.Err != nil && res.Err.Retryable() && !s.Stopped(); attempt++ {
			s.Ctr.QueryRetries++
			s.QStats.AddRetry(q.Label)
			backoff(p, o.G, attempt)
			res = s.runQuery(p, q, o.MaxDOP, o.GrantPct)
		}
	}
	return res
}

// Exec runs one whole transaction (fn) as a labeled statement: the
// session's counter set is zeroed and attached for the duration so waits,
// buffer traffic and I/O attribute to it, the attempt is folded into the
// server's per-template query statistics under label, and transient aborts
// (victim, IO) are retried with backoff under Config.Retry using g for
// jitter. It reports whether the transaction ultimately committed. Exec
// calls on one session do not nest: fn must not call Exec on the session
// it runs under.
func (sess *Session) Exec(label string, g *sim.RNG, fn func() bool) bool {
	s, p := sess.S, sess.P
	run := func() bool {
		t0 := p.Now()
		stmt := &sess.stmt
		*stmt = metrics.Counters{}
		prev := p.Attr()
		p.SetAttr(stmt)
		ok := fn()
		p.SetAttr(prev)
		s.QStats.Record(label, metrics.Exec{
			Elapsed: sim.Duration(p.Now() - t0),
			Failed:  !ok,
			Stmt:    stmt,
		})
		return ok
	}
	ok := run()
	if !ok && s.Cfg.Retry {
		// Bounded retry with backoff for transient aborts (victim, IO);
		// shutdown and not-durable commits are terminal.
		for attempt := 1; attempt < retryAttempts && !s.Stopped(); attempt++ {
			if qe := sess.TakeErr(); qe != nil && !qe.Retryable() {
				break
			}
			s.Ctr.TxnRetries++
			s.QStats.AddRetry(label)
			backoff(p, g, attempt)
			if ok = run(); ok {
				break
			}
		}
		sess.TakeErr()
	}
	return ok
}

// setErr latches the first failure of the current transaction.
func (sess *Session) setErr(kind ErrKind, op string) {
	if sess.err == nil {
		sess.err = &QueryError{Kind: kind, Op: op, At: sess.P.Now()}
	}
}

// TakeErr returns the first failure since the last call and clears it.
// Drivers use it to decide whether (and how) to retry an aborted txn.
func (sess *Session) TakeErr() *QueryError {
	e := sess.err
	sess.err = nil
	return e
}

// Begin starts a transaction. A session runs one transaction at a time
// and, outside crash-recovery recording, hands out the same Txn each
// time: the handle is valid until Commit or Abort returns. Under
// recording each transaction gets its own Txn, which inherits the last
// one's held-lock list (txn.Manager.BeginIn).
func (sess *Session) Begin() *txn.Txn {
	prev := sess.cur
	if prev == nil {
		prev = &sess.tx
	}
	sess.cur = sess.S.Txns.BeginIn(prev)
	return sess.cur
}

// Commit charges commit processing, flushes pending work, and commits
// (group commit wait), taking the log-buffer latch briefly as the commit
// record is formatted. It reports whether the transaction actually
// committed: an unrecoverable device error during the transaction's
// statements (deposited on the proc by the buffer pool) aborts instead.
func (sess *Session) Commit(tx *txn.Txn) bool {
	if err := sess.P.TakeFail(); err != nil {
		sess.setErr(ErrIO, "commit")
		sess.Abort(tx)
		return false
	}
	// A victim-aborted transaction still pays the commit-statement charges
	// (the client issued COMMIT and the engine processed it) but reports
	// failure so drivers can retry.
	committed := tx.Active()
	sess.Ctx.CPU(sess.Ctx.Cost.TxnInstr)
	sess.Ctx.TouchMeta(3500)
	sess.Ctx.Flush()
	sess.S.logLatch.Do(sess.P, 300)
	durable := tx.Commit(sess.P)
	if committed && !durable {
		// The log stopped (or crashed) before the commit record flushed:
		// the transaction did not commit.
		sess.setErr(ErrNotDurable, "commit")
		return false
	}
	if committed {
		if rec := tx.CommitRec(); rec != nil {
			sess.LastCommitLSN = rec.LSN
		}
	}
	return committed
}

// stmtOverhead charges the fixed per-statement engine work (protocol,
// bind, plan-cache lookup, execution context).
func (sess *Session) stmtOverhead() {
	sess.Ctx.CPU(sess.Ctx.Cost.StmtInstr)
	sess.Ctx.Stall(sess.Ctx.Cost.StmtStallNs)
	// The statement's walk over shared engine state (plan cache, schema,
	// lock manager, TDS buffers) — the transactional working set whose
	// fit in a few MB of LLC produces Table 4's small sufficient sizes.
	sess.Ctx.TouchMeta(2800)
}

// Abort rolls back.
func (sess *Session) Abort(tx *txn.Txn) {
	sess.Ctx.Flush()
	tx.Abort()
}

// logRecord registers the log record for a modification (row image +
// header) with the page it covers and its logical undo payload.
func logRecord(tx *txn.Txn, t *storage.Table, page wal.PageID, ops []wal.Op) {
	tx.LogOp(t.RowWidth()+wal.RecHeaderBytes, page, ops)
}

// logOp registers a modification with one logical op. Under recording the
// op is built in the Update writer's buffer, which is free outside its
// callback, and LogOp copies it; otherwise there is nothing to keep.
func (sess *Session) logOp(tx *txn.Txn, t *storage.Table, page wal.PageID, op wal.Op) {
	var ops []wal.Op
	if sess.S.Txns.Recording() {
		sess.rw.ops = append(sess.rw.ops[:0], op)
		ops = sess.rw.ops
	}
	logRecord(tx, t, page, ops)
}

// dataPage returns the PageID of a table's data page holding nominal row
// nid.
func dataPage(t *storage.Table, nid int64) wal.PageID {
	return wal.PageID{File: t.Data.ID, Page: t.PageOfNominal(nid)}
}

// RowWriter applies a row mutation and captures its logical undo
// payload. Update statements hand one to the driver's callback; the
// driver expresses the modification through Get/Set/Add instead of
// writing the table directly, which is how write statements register
// page + undo info on their WAL records. The writer is the session's and
// is valid only inside the callback.
type RowWriter struct {
	t   *storage.Table
	row int64
	rec bool // capture ops (crash-recovery bookkeeping armed)
	ops []wal.Op
}

// Get reads a column of the row.
func (w *RowWriter) Get(col int) int64 { return w.t.Get(w.row, col) }

// Set overwrites a column, recording the pre-image for undo.
func (w *RowWriter) Set(col int, v int64) {
	if w.rec {
		w.ops = append(w.ops, wal.Op{
			Kind: wal.OpSet, T: w.t, Row: w.row, Col: col,
			Old: w.t.Get(w.row, col), New: v,
		})
	}
	w.t.Set(w.row, col, v)
}

// Add increments a column by delta.
func (w *RowWriter) Add(col int, delta int64) { w.Set(col, w.Get(col)+delta) }

// Read performs an index point read at nominal row nid: S row lock, index
// probe, base-row fetch for nonclustered indexes. It returns the actual
// row ID.
func (sess *Session) Read(tx *txn.Txn, ix *access.BTIndex, key btree.Key, nid int64) (int64, bool) {
	sess.stmtOverhead()
	if !tx.Lock(sess.P, lock.Key{Obj: ix.Table.ID, Row: nid}, lock.S) {
		sess.setErr(ErrVictim, "read")
		return 0, false
	}
	rowID, ok := ix.Probe(sess.Ctx, key, nid, false)
	if ok && !ix.Clustered {
		access.Heap{T: ix.Table}.ProbePoint(sess.Ctx, nid, false)
	}
	return rowID, ok
}

// ReadRange scans count nominal entries from nid through the index
// (shared intent on the table, no per-row locks — read-committed range
// read at scan isolation). The returned row IDs are the session's scratch:
// valid until its next statement.
func (sess *Session) ReadRange(tx *txn.Txn, ix *access.BTIndex, from btree.Key, nid, count int64) []int64 {
	sess.stmtOverhead()
	if !tx.Lock(sess.P, lock.Key{Obj: ix.Table.ID, Row: -1}, lock.IS) {
		sess.setErr(ErrVictim, "read-range")
		return nil
	}
	ix.ChargeLeafRange(sess.Ctx, nid, count)
	sess.ids = sess.ids[:0]
	limit := int(count/ix.Table.K) + 1
	ix.RangeActual(from, nil, func(rowID int64) bool {
		sess.ids = append(sess.ids, rowID)
		return len(sess.ids) < limit
	})
	return sess.ids
}

// Update performs a read-modify-write of one row: U lock converted to X
// (the conversion-safe discipline), probe for write, mutate via fn, log.
func (sess *Session) Update(tx *txn.Txn, ix *access.BTIndex, key btree.Key, nid int64, fn func(w *RowWriter)) bool {
	sess.stmtOverhead()
	if !tx.Lock(sess.P, lock.Key{Obj: ix.Table.ID, Row: nid}, lock.U) {
		sess.setErr(ErrVictim, "update")
		return false
	}
	rowID, ok := ix.Probe(sess.Ctx, key, nid, false)
	if !ok {
		return false
	}
	if !tx.Lock(sess.P, lock.Key{Obj: ix.Table.ID, Row: nid}, lock.X) {
		sess.setErr(ErrVictim, "update")
		return false
	}
	access.Heap{T: ix.Table}.ProbePoint(sess.Ctx, nid, true)
	w := &sess.rw
	*w = RowWriter{t: ix.Table, row: rowID, rec: sess.S.Txns.Recording(), ops: w.ops[:0]}
	if fn != nil {
		fn(w)
	}
	logRecord(tx, ix.Table, dataPage(ix.Table, nid), w.ops)
	return true
}

// RowBuf returns the session's scratch for an n-column row (contents
// unspecified), for drivers to build the row of an Insert in: valid until
// that Insert returns, which copies whatever it keeps. Under recording an
// Insert copies a row built elsewhere into this buffer for its WAL image,
// which LogOp copies in turn.
func (sess *Session) RowBuf(n int) []int64 {
	if cap(sess.row) < n {
		sess.row = make([]int64, n)
	}
	return sess.row[:n]
}

// Insert appends one nominal row: IX table lock, X lock on the new row,
// heap append (hot last page), maintenance on each index, optional
// columnstore delta insert, log. It returns the nominal row ID.
func (sess *Session) Insert(tx *txn.Txn, t *storage.Table, row []int64, indexes []*access.BTIndex, csi *access.CSI) int64 {
	sess.stmtOverhead()
	if !tx.Lock(sess.P, lock.Key{Obj: t.ID, Row: -1}, lock.IX) {
		sess.setErr(ErrVictim, "insert")
		return -1
	}
	heap := access.Heap{T: t}
	heap.ChargeInsert(sess.Ctx)
	crossesPage := (t.NominalRows()+1)%t.RowsPerPage() == 0
	if crossesPage {
		// Page allocation touches the allocation map under a latch.
		sess.S.tableAllocLatch(t.ID).Do(sess.P, 800)
	}
	before := t.ActualRows()
	nid := t.InsertNominal(row)
	// LogOp and AddAbortResidue copy the WAL image, but handing them row
	// would make every caller's row escape to the heap: under recording
	// the image goes through the session's row buffer, where a RowBuf
	// caller built it already.
	var img []int64
	if sess.S.Txns.Recording() {
		img = sess.RowBuf(len(row))
		copy(img, row)
	}
	if !tx.Lock(sess.P, lock.Key{Obj: t.ID, Row: nid}, lock.X) {
		// Victim mid-insert: the nominal append stands (a ghost row),
		// as after a rolled-back insert awaiting cleanup. The abort ran
		// inside the lock wait, before this op could be registered, so
		// the ghost is attached to the abort record's residue after the
		// fact — replicas must reproduce it.
		sess.setErr(ErrVictim, "insert")
		t.DeleteNominal()
		tx.AddAbortResidue(wal.Op{
			Kind: wal.OpInsert, T: t, Row: t.ActualRows() - 1,
			Img: img, Materialized: t.ActualRows() > before,
		})
		return -1
	}
	materialized := t.ActualRows() > before
	for _, ix := range indexes {
		ix.ChargeMaintenance(sess.Ctx, nid)
		if materialized {
			ix.InsertActual(t.ActualRows() - 1)
		}
		ixFile, ixPage := ix.MaintPage(nid)
		logRecord(tx, t, wal.PageID{File: ixFile, Page: ixPage}, nil)
	}
	if csi != nil {
		csi.ChargeDeltaInsert(sess.Ctx)
		csi.Ix.AppendDelta(row)
		csi.Ix.CompressDelta()
	}
	sess.logOp(tx, t, dataPage(t, nid), wal.Op{
		Kind: wal.OpInsert, T: t, Row: t.ActualRows() - 1,
		Img: img, Materialized: materialized, Indexed: true,
	})
	return nid
}

// Delete removes a nominal row through an index: X lock, probe, ghost the
// row, log. (Space reclaim is deferred, as with real ghost records.)
func (sess *Session) Delete(tx *txn.Txn, ix *access.BTIndex, key btree.Key, nid int64) bool {
	sess.stmtOverhead()
	if !tx.Lock(sess.P, lock.Key{Obj: ix.Table.ID, Row: nid}, lock.U) {
		sess.setErr(ErrVictim, "delete")
		return false
	}
	_, ok := ix.Probe(sess.Ctx, key, nid, false)
	if !ok {
		return false
	}
	if !tx.Lock(sess.P, lock.Key{Obj: ix.Table.ID, Row: nid}, lock.X) {
		sess.setErr(ErrVictim, "delete")
		return false
	}
	access.Heap{T: ix.Table}.ProbePoint(sess.Ctx, nid, true)
	ix.Table.DeleteNominal()
	sess.logOp(tx, ix.Table, dataPage(ix.Table, nid), wal.Op{Kind: wal.OpDelete, T: ix.Table})
	return true
}
