package asdb

// The serving front end ships statement names and one integer argument
// over the wire (internal/proto.Request); this file is the server-side
// catalog that resolves them. The statement bodies are shared with the
// closed-loop client methods in asdb.go — the only difference is who
// picks the key: the closed-loop client draws from its own RNG/Zipf,
// while a served request carries the key chosen by the remote client.

import (
	"repro/internal/access"
	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/storage"
)

func pk(t *storage.Table, nid int64) btree.Key {
	return btree.Key{t.Get(t.ToActual(nid), 0)}
}

// PointReadAt is a single-row select of big-table row nid.
func (d *Dataset) PointReadAt(sess *engine.Session, nid int64) bool {
	tx := sess.Begin()
	sess.Read(tx, d.PKBig, pk(d.Big, nid), nid)
	return sess.Commit(tx)
}

// RangeReadAt is a 50-row range scan of the small table starting at nid.
func (d *Dataset) RangeReadAt(sess *engine.Session, nid int64) bool {
	tx := sess.Begin()
	sess.ReadRange(tx, d.PKSmall, pk(d.Small, nid), nid, 50)
	return sess.Commit(tx)
}

// JoinReadAt reads fixed-table row fid and big-table row nid in one
// transaction.
func (d *Dataset) JoinReadAt(sess *engine.Session, fid, nid int64) bool {
	tx := sess.Begin()
	sess.Read(tx, d.PKFixed, pk(d.Fixed, fid), fid)
	sess.Read(tx, d.PKBig, pk(d.Big, nid), nid)
	return sess.Commit(tx)
}

// UpdateAt is a single-row update of big-table row nid.
func (d *Dataset) UpdateAt(sess *engine.Session, nid int64) bool {
	tx := sess.Begin()
	sess.Update(tx, d.PKBig, pk(d.Big, nid), nid, func(w *engine.RowWriter) {
		w.Add(1, 1)
	})
	return sess.Commit(tx)
}

// InsertRow appends one row to the growing table. Row payloads come from
// the dataset's generator RNG, as they do in the closed-loop driver.
func (d *Dataset) InsertRow(sess *engine.Session) bool {
	tx := sess.Begin()
	id := d.Growing.NominalRows()
	sess.Insert(tx, d.Growing, d.row(sess.RowBuf(9), id),
		[]*access.BTIndex{d.PKGrowing, d.IXGrowing}, nil)
	return sess.Commit(tx)
}

// DeleteAt deletes growing-table row nid.
func (d *Dataset) DeleteAt(sess *engine.Session, nid int64) bool {
	tx := sess.Begin()
	sess.Delete(tx, d.PKGrowing, pk(d.Growing, nid), nid)
	return sess.Commit(tx)
}

// ExecOp dispatches a served OLTP statement by catalog name, mapping the
// wire argument onto a valid key for the target table. The bool pair is
// (statement outcome, name known).
func (d *Dataset) ExecOp(sess *engine.Session, name string, arg uint64) (bool, bool) {
	for i := range ops {
		if ops[i].name == name {
			return ops[i].serve(d, sess, arg), true
		}
	}
	return false, false
}

// SumBig builds the catalog's one analytical statement: a filtered
// scan-and-aggregate over the big scaling table (the operational store has
// no columnstore, so this is the row-scan HTAP query a reporting dashboard
// would run against the primary). sel is the predicate selectivity on v0.
func (d *Dataset) SumBig(sel float64) *opt.LNode {
	t := d.Big
	thr := int64(sel * float64(1<<30))
	v0 := t.Schema.Col("v0")
	scan := &opt.LNode{
		Kind:  opt.LScan,
		Heap:  access.Heap{T: t},
		CSI:   d.DB.CSIOf(t),
		Proj:  []int{t.Schema.Col("id"), v0, t.Schema.Col("v1")},
		Pred:  func(r exec.Row) bool { return r[v0] < thr },
		NPred: 1, PredCols: []int{v0},
		Sel: sel, Name: t.Name,
	}
	root := &opt.LNode{
		Kind: opt.LAgg, Left: scan,
		Aggs:    []exec.AggSpec{{Kind: exec.AggSum, Col: 2}, {Kind: exec.AggCount}},
		NGroups: 1, Name: "groupby",
	}
	root.Label = sumBig
	return root
}

// sumBig is the analytical statement's catalog name.
const sumBig = "asdb.SumBig"

// servedNames is every served statement name: the OLTP catalogue's, in
// catalogue order, then sumBig.
var servedNames = func() []string {
	names := make([]string, 0, len(ops)+1)
	for _, o := range ops {
		names = append(names, o.name)
	}
	return append(names, sumBig)
}()

// ServedNames returns every statement name the catalog serves, for a
// wire decoder to resolve names against instead of copying them. The
// caller must not modify the slice.
func ServedNames() []string { return servedNames }

// QueryOp resolves a served analytical statement by catalog name; the wire
// argument selects the selectivity cell in tenths (arg%8+1 → 0.1..0.8).
func (d *Dataset) QueryOp(name string, arg uint64) (*opt.LNode, bool) {
	if name != sumBig {
		return nil, false
	}
	return d.SumBig(float64(arg%8+1) / 10), true
}
