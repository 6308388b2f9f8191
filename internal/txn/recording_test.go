package txn

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Layout of recorded transactions: Txns, log records, and the copies of
// ops and row images come from the Manager's slabs, a record list starts
// on a window of the list slab, and an op lives only in its record.

// undoTable is a one-column table of eight rows for ops to revert.
func undoTable() *storage.Table {
	tb := storage.NewTable(1, storage.NewSchema("undo", storage.Column{Name: "v", Type: storage.TInt, Width: 8}), 1)
	for i := int64(0); i < 8; i++ {
		tb.AppendLoad([]int64{i})
	}
	return tb
}

// sameOp reports whether two ops are the same registration.
func sameOp(a, b wal.Op) bool {
	return a.Kind == b.Kind && a.T == b.T && a.Row == b.Row && a.Col == b.Col && a.Old == b.Old &&
		a.New == b.New && a.Seq == b.Seq && slices.Equal(a.Img, b.Img) &&
		a.Materialized == b.Materialized && a.Indexed == b.Indexed
}

// recOps concatenates the ops of tx's records, in statement order.
func recOps(tx *Txn) []wal.Op {
	var ops []wal.Op
	for _, r := range tx.Recs() {
		ops = append(ops, r.Ops...)
	}
	return ops
}

func TestRecordedTxnAllocatesNothingOfItsOwn(t *testing.T) {
	s, m, _, l := setup()
	l.Recording = true
	// One caller buffer, an insert op with a row image, logged by every
	// transaction: the record keeps a slab copy of both.
	const maxTxns = 1 << 14
	ops := []wal.Op{{Kind: wal.OpInsert, Row: 1, Img: []int64{7, 8, 9}}}
	stop := false
	commits := 0
	s.Spawn("t", func(p *sim.Proc) {
		var own Txn
		prev := &own
		for i := int64(0); !stop && i < maxTxns; i++ {
			tx := m.BeginIn(prev)
			prev = tx
			for j := int64(0); j < 4; j++ {
				tx.Lock(p, lock.Key{Obj: 1, Row: (i*4 + j) % 4096}, lock.X)
			}
			tx.LogOp(300, wal.PageID{File: 1, Page: 1}, nil)
			tx.LogOp(300, wal.PageID{File: 1, Page: 2}, ops)
			tx.Commit(p)
			commits++
		}
	})
	window := func() { s.Run(s.Now() + sim.Time(10*sim.Millisecond)) }
	for commits < 256 {
		window() // warm-up: lock entries, held capacity, queue arrays
	}
	before, mallocs := commits, func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	start := mallocs()
	for commits-before < 4096 {
		window()
	}
	n := commits - before
	if avg := float64(mallocs()-start) / float64(n); avg >= 0.05 {
		t.Errorf("%.3f mallocs per recorded Begin → Lock×4 → LogOp×2 → Commit over %d transactions, want < 0.05", avg, n)
	}
	if img := m.All()[0].Recs()[1].Ops[0].Img; &img[0] == &ops[0].Img[0] {
		t.Error("the record keeps the caller's row image, not a copy")
	}
	stop = true
	window()
	l.Stop()
	s.Run(s.Now() + sim.Time(sim.Second))
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}

// A window's capacity stops at its length; one larger than a chunk is
// private; and appending past a window never writes into the next one.
func TestSlabWindow(t *testing.T) {
	var s slab[wal.Op]
	if n := s.chunkLen(); n != slabLen {
		t.Fatalf("a chunk of ops holds %d, want slabLen = %d", n, slabLen)
	}
	if n := (&slab[int64]{}).chunkLen(); n != slabBytes/8 {
		t.Fatalf("a chunk of row-image words holds %d, want %d", n, slabBytes/8)
	}
	one := s.window(1)
	if len(one) != 0 || cap(one) != 1 || len(s.chunk) != slabLen-1 {
		t.Fatalf("window(1): len %d cap %d, %d left in the chunk: want 0, 1, %d", len(one), cap(one), len(s.chunk), slabLen-1)
	}
	big := s.window(slabLen + 1)
	if len(big) != 0 || cap(big) != slabLen+1 || len(s.chunk) != slabLen-1 {
		t.Fatalf("window(slabLen+1): len %d cap %d, %d left in the chunk: want 0, %d, %d (private)",
			len(big), cap(big), len(s.chunk), slabLen+1, slabLen-1)
	}
	full := s.window(slabLen)
	if len(full) != 0 || cap(full) != slabLen || len(s.chunk) != 0 {
		t.Fatalf("window(slabLen): len %d cap %d, %d left in the chunk: want 0, %d, 0", len(full), cap(full), len(s.chunk), slabLen)
	}
	a, b := s.window(2), s.window(2)
	b = append(b, wal.Op{Row: 1}, wal.Op{Row: 2})
	for _, w := range [][]wal.Op{a, b, big, full} {
		_ = append(w[:cap(w)], wal.Op{Row: -1})
	}
	if b[0].Row != 1 || b[1].Row != 2 {
		t.Errorf("appending past a window of 2 wrote into the next one: %+v", b)
	}
	if rest := s.window(1)[:1]; rest[0].Row != 0 {
		t.Errorf("appending past a window wrote into the chunk's free part: %+v", rest[0])
	}
	if got := s.clone(nil); got != nil {
		t.Errorf("clone(nil) = %v, want nil", got)
	}
}

// Two interleaved transactions take neighbouring record-list windows; the
// one that outgrows its window must not write into the other's.
func TestRecordListsDoNotAlias(t *testing.T) {
	s, m, _, l := setup()
	l.Recording = true
	s.Spawn("t", func(p *sim.Proc) {
		a, b := m.Begin(), m.Begin()
		stmts := map[*Txn]int64{a: 6, b: 3}
		for i := int64(1); i <= 6; i++ {
			for _, tx := range []*Txn{a, b} {
				if i <= stmts[tx] {
					tx.LogOp(1000*tx.ID()+i, wal.PageID{File: 1, Page: i}, nil)
				}
			}
		}
		for _, tx := range []*Txn{a, b} {
			if !tx.Commit(p) {
				t.Fatalf("txn %d did not commit", tx.ID())
			}
		}
		image := l.Records()
		for _, tx := range []*Txn{a, b} {
			recs := tx.Recs()
			if int64(len(recs)) != stmts[tx] {
				t.Fatalf("txn %d has %d records, want %d", tx.ID(), len(recs), stmts[tx])
			}
			for i, r := range recs {
				if r.Txn != tx.ID() || r.Bytes != 1000*tx.ID()+int64(i)+1 {
					t.Errorf("txn %d record %d is txn %d's %d-byte record", tx.ID(), i, r.Txn, r.Bytes)
				}
			}
			at := slices.IndexFunc(image, func(r *wal.Record) bool { return r.Type == wal.RecBegin && r.Txn == tx.ID() })
			if at < 0 || len(image) < at+len(recs)+2 {
				t.Fatalf("txn %d's batch is not in the log image", tx.ID())
			}
			if !slices.Equal(image[at+1:at+1+len(recs)], recs) || image[at+1+len(recs)] != tx.CommitRec() {
				t.Errorf("the log image does not hold txn %d's begin, updates and commit in order", tx.ID())
			}
		}
		l.Stop()
	})
	s.Run(sim.Time(sim.Second))
}

// Undo reverts the concatenated record ops from the tail: records with 0,
// 1 and 3 ops, two of them writing the same cell, so reverting in any
// other order leaves the wrong value behind.
func TestUndoWalksRecordsInOrder(t *testing.T) {
	s, m, _, l := setup()
	l.Recording = true
	tb := undoTable()
	set := func(row, v int64) wal.Op {
		op := wal.Op{Kind: wal.OpSet, T: tb, Row: row, Old: tb.Get(row, 0), New: v}
		tb.Set(row, 0, v)
		return op
	}
	insert := func(v int64) wal.Op {
		tb.InsertNominal([]int64{v})
		return wal.Op{Kind: wal.OpInsert, T: tb, Row: tb.ActualRows() - 1, Img: []int64{v}, Materialized: true}
	}
	s.Spawn("t", func(p *sim.Proc) {
		for _, end := range []string{"undo", "abort"} {
			tx := m.Begin()
			tx.LogOp(100, wal.PageID{File: 1, Page: 1}, nil)
			tx.LogOp(100, wal.PageID{File: 1, Page: 2}, []wal.Op{insert(40)})
			tx.LogOp(100, wal.PageID{File: 1, Page: 3}, []wal.Op{set(2, 20), insert(41), set(2, 21)})
			want := recOps(tx)
			if len(want) != 4 || tx.NumOps() != 4 {
				t.Fatalf("%d record ops, NumOps %d: want 4", len(want), tx.NumOps())
			}
			if end == "abort" {
				tx.Abort()
				if tx.UndoneOps() != 4 || tb.Get(2, 0) != 2 {
					t.Errorf("abort undid %d ops, row 2 = %d: want 4 and 2", tx.UndoneOps(), tb.Get(2, 0))
				}
				image := l.Records()
				abort := image[len(image)-1]
				if abort.Type != wal.RecAbort || len(abort.Residue) != 2 ||
					!sameOp(abort.Residue[0], want[0]) || !sameOp(abort.Residue[1], want[2]) {
					t.Errorf("abort record %v carries residue %v: want the two inserts in execution order", abort.Type, abort.Residue)
				}
				// A victim's late insert joins the residue past its window,
				// with a copy of the caller's image.
				img := []int64{42}
				tx.AddAbortResidue(wal.Op{Kind: wal.OpInsert, T: tb, Row: 9, Img: img})
				img[0] = -1
				if r := abort.Residue; len(r) != 3 || !sameOp(r[0], want[0]) || !sameOp(r[1], want[2]) ||
					r[2].Row != 9 || !slices.Equal(r[2].Img, []int64{42}) {
					t.Errorf("after AddAbortResidue the residue is %+v: want the two inserts, then row 9 with image [42]", r)
				}
				continue
			}
			for i := len(want) - 1; i >= 0; i-- {
				peek, ok := tx.PeekUndo()
				if !ok || !sameOp(peek, want[i]) {
					t.Fatalf("PeekUndo after %d undone = %+v, %v: want op %d", tx.UndoneOps(), peek, ok, i)
				}
				got, ok := tx.UndoNext()
				if !ok || !sameOp(got, want[i]) {
					t.Fatalf("UndoNext after %d undone = %+v, %v: want op %d", tx.UndoneOps(), got, ok, i)
				}
				if tx.UndoneOps() != len(want)-i {
					t.Fatalf("UndoneOps = %d after %d UndoNext calls", tx.UndoneOps(), len(want)-i)
				}
			}
			if _, ok := tx.PeekUndo(); ok {
				t.Error("PeekUndo found an op past the last")
			}
			if _, ok := tx.UndoNext(); ok || tx.UndoneOps() != 4 {
				t.Errorf("UndoNext past the last op reverted one (%d undone)", tx.UndoneOps())
			}
			if tb.Get(2, 0) != 2 {
				t.Errorf("row 2 = %d after undo, want its pre-image 2", tb.Get(2, 0))
			}
			tx.Abort()
		}
		l.Stop()
	})
	s.Run(sim.Time(sim.Second))
}

// FuzzRecordedTxn runs an interleaved program over up to four recorded
// transactions against a model that keeps each transaction's ops as one
// plain list, numbering them itself: every Recs(), PeekUndo and UndoNext,
// every abort record's residue, and the place of every committed
// transaction's records in the log image must agree with it. Every LogOp
// is fed from one reused caller buffer whose ops and row images are
// overwritten as soon as the call returns, so a record that kept the
// caller's slice or images instead of copies would diverge.
func FuzzRecordedTxn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 3, 5, 7, 9, 8, 12, 13, 16, 17})
	f.Add([]byte{0, 4, 3, 255, 4, 3, 1, 2, 8, 8, 4, 0, 4, 1, 12, 16, 1, 5, 17, 2, 0, 1})
	f.Add([]byte{0, 1, 4, 3, 10, 20, 30, 5, 3, 11, 21, 31, 4, 3, 1, 2, 3, 8, 9, 8, 16, 17})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		s, m, _, l := setup()
		l.Recording = true
		tb := undoTable()
		type model struct {
			tx    *Txn
			stmts [][]wal.Op // the ops of each LogOp, Seq assigned
			ops   []wal.Op   // stmts concatenated
			done  bool
		}
		var committed []*model
		var (
			buf  []wal.Op // the caller's ops, reused by every LogOp
			imgs [3]int64 // the caller's row images, one word per op
			seq  int64    // the model's last op sequence number
		)
		s.Spawn("prog", func(p *sim.Proc) {
			var slots [4]*model
			next := func() byte {
				if len(prog) == 0 {
					return 0
				}
				b := prog[0]
				prog = prog[1:]
				return b
			}
			for len(prog) > 0 {
				b := next()
				md := slots[b&3]
				if b>>2%5 != 0 && (md == nil || md.done) {
					continue // only Begin acts on an empty slot
				}
				switch b >> 2 % 5 {
				case 0: // Begin, in the slot's previous Txn as Session.Begin does
					if md != nil && !md.done {
						continue
					}
					var prev *Txn
					if md != nil {
						prev = md.tx
					}
					slots[b&3] = &model{tx: m.BeginIn(prev)}
				case 1: // LogOp with 0–3 ops of mixed kinds
					buf = buf[:0]
					var stmt []wal.Op
					for i := range int(next() % 4) {
						c := next()
						var op wal.Op
						switch c % 3 {
						case 0:
							op = wal.Op{Kind: wal.OpSet, T: tb, Row: int64(c>>2) % 8, Old: int64(c), New: int64(c) + 1}
						case 1:
							imgs[i] = int64(c)
							op = wal.Op{Kind: wal.OpInsert, T: tb, Row: int64(c), Img: imgs[i : i+1], Materialized: c&4 != 0, Indexed: c&8 != 0}
						default:
							op = wal.Op{Kind: wal.OpDelete, T: tb, Row: int64(c)}
						}
						buf = append(buf, op)
						seq++
						op.Seq, op.Img = seq, slices.Clone(op.Img)
						stmt = append(stmt, op)
					}
					md.tx.LogOp(int64(100+len(md.stmts)), wal.PageID{File: 1, Page: int64(len(md.stmts))}, buf)
					for i := range buf {
						buf[i] = wal.Op{Kind: wal.OpSet, Row: -1, Old: -1, New: -1, Seq: -1}
					}
					imgs = [3]int64{-1, -1, -1}
					md.stmts = append(md.stmts, stmt)
					md.ops = append(md.ops, stmt...)
				case 2: // UndoNext
					i := len(md.ops) - 1 - md.tx.UndoneOps()
					peek, pok := md.tx.PeekUndo()
					got, ok := md.tx.UndoNext()
					if ok != (i >= 0) || pok != ok {
						t.Fatalf("txn %d: UndoNext ok %v, PeekUndo ok %v with %d of %d ops undone", md.tx.ID(), ok, pok, len(md.ops)-1-i, len(md.ops))
					}
					if ok && (!sameOp(got, md.ops[i]) || !sameOp(peek, md.ops[i])) {
						t.Fatalf("txn %d: UndoNext = %+v, PeekUndo = %+v, want op %d %+v", md.tx.ID(), got, peek, i, md.ops[i])
					}
				case 3: // Commit
					md.done = true
					if !md.tx.Commit(p) {
						t.Fatalf("txn %d did not commit", md.tx.ID())
					}
					committed = append(committed, md)
				case 4: // Abort
					md.done = true
					md.tx.Abort()
					image := l.Records()
					abort := image[len(image)-1]
					var inserts []wal.Op
					for _, op := range md.ops {
						if op.Kind == wal.OpInsert {
							inserts = append(inserts, op)
						}
					}
					if abort.Type != wal.RecAbort || abort.Txn != md.tx.ID() ||
						!slices.EqualFunc(abort.Residue, inserts, sameOp) {
						t.Fatalf("txn %d: abort record %v of txn %d carries residue %+v, want %+v",
							md.tx.ID(), abort.Type, abort.Txn, abort.Residue, inserts)
					}
					if md.tx.UndoneOps() != len(md.ops) {
						t.Fatalf("txn %d: abort left %d of %d ops undone", md.tx.ID(), md.tx.UndoneOps(), len(md.ops))
					}
				}
				if b>>2%5 == 0 {
					continue
				}
				recs := md.tx.Recs()
				if len(recs) != len(md.stmts) {
					t.Fatalf("txn %d has %d records after %d LogOps", md.tx.ID(), len(recs), len(md.stmts))
				}
				for i, r := range recs {
					if r.Type != wal.RecUpdate || r.Txn != md.tx.ID() || r.Bytes != int64(100+i) ||
						!slices.EqualFunc(r.Ops, md.stmts[i], sameOp) {
						t.Fatalf("txn %d record %d = %v of txn %d, %d bytes, ops %+v: want ops %+v",
							md.tx.ID(), i, r.Type, r.Txn, r.Bytes, r.Ops, md.stmts[i])
					}
				}
			}
			for _, md := range slots {
				if md != nil && !md.done {
					md.tx.Abort()
				}
			}
			l.Stop()
		})
		s.Run(sim.Forever)
		image := l.Records()
		for _, md := range committed {
			at := slices.IndexFunc(image, func(r *wal.Record) bool { return r.Type == wal.RecBegin && r.Txn == md.tx.ID() })
			recs := md.tx.Recs()
			if at < 0 || len(image) < at+len(recs)+2 ||
				!slices.Equal(image[at+1:at+1+len(recs)], recs) || image[at+1+len(recs)] != md.tx.CommitRec() {
				t.Fatalf("the log image does not hold txn %d's begin, %d updates and commit contiguously", md.tx.ID(), len(recs))
			}
		}
	})
}
