package access

import (
	"repro/internal/btree"
	"repro/internal/storage"
)

// BTIndex is a costed B-tree index. Clustered indexes use the table's
// data file as their leaf level (the SQL Server model); nonclustered
// indexes have their own leaf pages holding row references.
type BTIndex struct {
	Name      string
	Table     *storage.Table
	KeyCols   []int
	Unique    bool
	Clustered bool

	Tree *btree.Tree
	File *storage.File // internal levels (clustered) or whole index (NC)

	geom      btree.Geom
	internal  int64 // internal page count within File
	levels    int64 // internal levels a probe traverses, at least 1
	leafPer   int64 // nominal leaf entries per page
	leafPages int64 // nominal leaf pages
}

// NewBTIndex creates an index over the table's current contents.
func NewBTIndex(id int, name string, t *storage.Table, keyCols []int, unique, clustered bool) *BTIndex {
	var keyWidth int64
	for _, c := range keyCols {
		keyWidth += int64(t.Cols[c].Width)
	}
	rowRef := int64(9)
	if clustered {
		rowRef = 0
	}
	ix := &BTIndex{
		Name:      name,
		Table:     t,
		KeyCols:   keyCols,
		Unique:    unique,
		Clustered: clustered,
		Tree:      btree.New(),
		File:      &storage.File{ID: id, Name: name},
	}
	ix.refreshGeom(keyWidth, rowRef)
	// The tree copies each key, so one scratch key serves the whole build.
	key := make(btree.Key, 0, len(keyCols)+1)
	for r := int64(0); r < t.ActualRows(); r++ {
		ix.Tree.Insert(ix.appendKey(key[:0], r), r)
	}
	return ix
}

// refreshGeom sets the nominal geometry and the figures every probe
// charges from it, so a probe computes no logarithm.
func (ix *BTIndex) refreshGeom(keyWidth, rowRef int64) {
	ix.geom = btree.Geom{KeyWidth: keyWidth, RowRefWidth: rowRef, NominalRows: ix.Table.NominalRows()}
	ix.levels = max(ix.geom.Height()-1, 1)
	ix.leafPer = ix.geom.LeafEntriesPerPage()
	ix.leafPages = ix.geom.LeafPages()
	if ix.Clustered {
		// Leaf level is the table's data file; this file holds only the
		// internal levels.
		ix.internal = ix.geom.Pages() - ix.geom.LeafPages()
		if ix.internal < 1 {
			ix.internal = 1
		}
		ix.File.Pages = ix.internal
	} else {
		ix.internal = ix.geom.Pages() - ix.geom.LeafPages()
		if ix.internal < 1 {
			ix.internal = 1
		}
		ix.File.Pages = ix.geom.Pages()
	}
}

// Geom returns the nominal geometry.
func (ix *BTIndex) Geom() btree.Geom { return ix.geom }

// NominalBytes returns the index's contribution to "index size":
// internal levels for clustered indexes (the leaf is the data), the whole
// tree for nonclustered ones.
func (ix *BTIndex) NominalBytes() int64 { return ix.File.Bytes() }

// appendKey appends the tree key for an actual row to k, with the row ID
// last for non-unique indexes so keys are distinct.
func (ix *BTIndex) appendKey(k btree.Key, rowID int64) btree.Key {
	for _, c := range ix.KeyCols {
		k = append(k, ix.Table.Get(rowID, c))
	}
	if !ix.Unique {
		k = append(k, rowID)
	}
	return k
}

// leafPage maps a nominal row position to its leaf page within File (NC)
// or within the table's data file (clustered).
func (ix *BTIndex) leafPage(nid int64) int64 {
	if ix.Clustered {
		return ix.Table.PageOfNominal(nid)
	}
	return ix.internal + min(nid/ix.leafPer, ix.leafPages-1)
}

// chargeTraverse charges the internal-level traversal: (height-1) random
// touches into the internal pages (a hot few-MB region) plus per-level
// instructions. Internal pages are assumed buffer-resident (they are tiny
// relative to the pool and pinned hot in practice).
func (ix *BTIndex) chargeTraverse(ctx *Ctx) {
	ctx.TouchRandom(ix.File.Region, ix.internal*storage.PageBytes, ix.levels*3, false, 1.5)
	ctx.TouchMeta(20) // lock/latch/schema structures per seek
	ctx.CPU(ctx.Cost.SeekInstr + float64(ix.levels)*ctx.Cost.LevelInstr)
}

// Probe performs a costed point lookup: traverse internal levels, latch
// the leaf page (I/O if cold), and search the actual tree. nid positions
// the nominal leaf page; key is the actual search key. Returns the actual
// row ID.
func (ix *BTIndex) Probe(ctx *Ctx, key btree.Key, nid int64, write bool) (int64, bool) {
	ix.chargeTraverse(ctx)
	leaf := ix.leafPage(nid)
	file := ix.File
	if ix.Clustered {
		file = ix.Table.Data
	}
	ctx.BP.Probe(ctx.P, file, leaf, write, ctx.Cost.RowOverheadNs)
	ctx.TouchSeq(file.PageAddr(leaf), 256, write, 2)
	it := ix.Tree.Seek(key)
	if !it.Valid() {
		return 0, false
	}
	got := it.Key()
	for i, v := range key {
		if i >= len(got) || got[i] != v {
			return 0, false
		}
	}
	return it.Value(), true
}

// ChargeMaintenance charges inserting/deleting one nominal entry at
// nominal position nid (leaf latch + traversal). The functional tree
// mutation is the caller's business (only materialized rows mutate it).
func (ix *BTIndex) ChargeMaintenance(ctx *Ctx, nid int64) {
	ix.chargeTraverse(ctx)
	leaf := ix.leafPage(nid)
	file := ix.File
	if ix.Clustered {
		file = ix.Table.Data
	}
	ctx.BP.Probe(ctx.P, file, leaf, true, ctx.Cost.RowOverheadNs)
	ctx.TouchSeq(file.PageAddr(leaf), 128, true, 2)
	ctx.CPU(ctx.Cost.LevelInstr)
}

// MaintPage returns the (file ID, page) a maintenance write at nominal
// position nid dirties — the leaf within the table's data file for
// clustered indexes, the index's own leaf otherwise. The engine stamps
// it on index-maintenance log records so recovery redo charges the same
// pages the forward path touched.
func (ix *BTIndex) MaintPage(nid int64) (int, int64) {
	leaf := ix.leafPage(nid)
	if ix.Clustered {
		return ix.Table.Data.ID, leaf
	}
	return ix.File.ID, leaf
}

// InsertActual adds an actual row to the functional tree (after the table
// materialized it). The key is built on the stack: the tree copies it.
func (ix *BTIndex) InsertActual(rowID int64) {
	var buf [8]int64
	ix.Tree.Insert(ix.appendKey(buf[:0], rowID), rowID)
}

// LookupAll returns the actual row IDs of every entry whose key begins
// with prefix (functional part of a seek; cost via Probe/ChargeLeafRange).
func (ix *BTIndex) LookupAll(prefix btree.Key) []int64 {
	var out []int64
	it := ix.Tree.Seek(prefix)
	for it.Valid() {
		k := it.Key()
		match := true
		for i, v := range prefix {
			if i >= len(k) || k[i] != v {
				match = false
				break
			}
		}
		if !match {
			break
		}
		out = append(out, it.Value())
		it.Next()
	}
	return out
}

// RangeActual iterates actual rows with keys in [from, to) in key order,
// calling visit for each; visit returns false to stop. Costing is the
// caller's business (use ChargeScan on the underlying heap or leaf
// range).
func (ix *BTIndex) RangeActual(from, to btree.Key, visit func(rowID int64) bool) {
	it := ix.Tree.Seek(from)
	for it.Valid() {
		if to != nil && btree.Compare(it.Key(), to) >= 0 {
			return
		}
		if !visit(it.Value()) {
			return
		}
		it.Next()
	}
}

// ChargeLeafRange charges a leaf-level range scan of count nominal
// entries starting at nominal position nid.
func (ix *BTIndex) ChargeLeafRange(ctx *Ctx, nid, count int64) {
	ix.chargeTraverse(ctx)
	if count <= 0 {
		return
	}
	first := ix.leafPage(nid)
	last := ix.leafPage(nid + count - 1)
	file := ix.File
	if ix.Clustered {
		file = ix.Table.Data
	}
	ctx.BP.Scan(ctx.P, file, first, last-first+1, 32)
	ctx.TouchSeq(file.PageAddr(first), (last-first+1)*storage.PageBytes, false, 6)
	ctx.CPU(float64(count) * ctx.Cost.RowScanIPR * 0.6)
}
