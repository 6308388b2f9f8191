package access

import (
	"repro/internal/colstore"
	"repro/internal/storage"
)

// CSI is the costed access method for a columnstore index.
type CSI struct {
	Ix *colstore.Index

	// segPageOff caches each (colPos, seg) segment's page offset within
	// the index file; recomputed lazily when the segment count changes.
	segPageOff [][]int64
	segsSeen   int
}

// NewCSI wraps a columnstore index.
func NewCSI(ix *colstore.Index) *CSI {
	c := &CSI{Ix: ix}
	c.layout()
	return c
}

// layout assigns page offsets column-major: all of column 0's segments,
// then column 1's, etc.
func (c *CSI) layout() {
	c.segPageOff = make([][]int64, len(c.Ix.Cols))
	off := int64(0)
	for cp := range c.Ix.Cols {
		segs := c.Ix.Segments()
		c.segPageOff[cp] = make([]int64, segs)
		for sg := 0; sg < segs; sg++ {
			c.segPageOff[cp][sg] = off
			bytes := c.Ix.SegmentNominalBytes(cp, sg)
			off += (bytes + storage.PageBytes - 1) / storage.PageBytes
		}
	}
	c.segsSeen = c.Ix.Segments()
}

// ChargeSegmentScan charges reading and decompressing one column segment:
// buffer-pool reads of the compressed nominal pages, a sequential LLC
// touch, and batch-mode per-row instructions. Returns the nominal rows
// represented.
func (c *CSI) ChargeSegmentScan(ctx *Ctx, colPos, seg int, preds int) int64 {
	if c.segsSeen != c.Ix.Segments() {
		c.layout()
	}
	s := c.Ix.Segment(colPos, seg)
	nominalRows := int64(s.N) * c.Ix.Table.K
	bytes := c.Ix.SegmentNominalBytes(colPos, seg)
	pages := (bytes + storage.PageBytes - 1) / storage.PageBytes
	off := c.segPageOff[colPos][seg]
	ctx.BP.Scan(ctx.P, c.Ix.File, off, pages, 64)
	ctx.TouchSeq(c.Ix.File.PageAddr(off), pages*storage.PageBytes, false, 8)
	ctx.TouchMeta(float64(nominalRows) * 0.5) // batch mode amortizes engine state
	ctx.CPU(float64(nominalRows) * (ctx.Cost.ColScanIPR + float64(preds)*ctx.Cost.PredIPR*0.25))
	return nominalRows
}

// SegScanCursor charges one column segment's scan incrementally, batch
// by batch, totalling exactly one ChargeSegmentScan: buffer-pool pages
// are charged proportionally to the rows consumed (deduplicated at batch
// boundaries), per-row CPU and metadata touches accrue per batch, and
// the segment's sequential LLC touch is issued once at Close (the cache
// model samples coarse streaming touches; see ScanCursor).
type SegScanCursor struct {
	c        *CSI
	preds    int
	segRows  int64 // actual rows in the segment
	k        int64 // nominal rows per actual row
	bytes    int64 // compressed nominal bytes
	pages    int64
	off      int64 // first page of the segment in the index file
	nextPage int64 // next uncharged page, relative to off
}

// NewSegScanCursor starts an incremental charge of one column segment.
// It returns a value, so a scan can keep its cursors in one slice.
func (c *CSI) NewSegScanCursor(colPos, seg, preds int) SegScanCursor {
	if c.segsSeen != c.Ix.Segments() {
		c.layout()
	}
	s := c.Ix.Segment(colPos, seg)
	bytes := c.Ix.SegmentNominalBytes(colPos, seg)
	return SegScanCursor{
		c:       c,
		preds:   preds,
		segRows: int64(s.N),
		k:       c.Ix.Table.K,
		bytes:   bytes,
		pages:   (bytes + storage.PageBytes - 1) / storage.PageBytes,
		off:     c.segPageOff[colPos][seg],
	}
}

// ChargeRows charges actual segment rows [lo, hi), which must advance
// monotonically across calls.
func (sc *SegScanCursor) ChargeRows(ctx *Ctx, lo, hi int) {
	if hi <= lo || sc.segRows == 0 {
		return
	}
	// Pages covering the segment's byte range up to row hi.
	endByte := sc.bytes * int64(hi) / sc.segRows
	endPage := (endByte + storage.PageBytes - 1) / storage.PageBytes
	if int64(hi) >= sc.segRows || endPage > sc.pages {
		endPage = sc.pages
	}
	if endPage > sc.nextPage {
		ctx.BP.Scan(ctx.P, sc.c.Ix.File, sc.off+sc.nextPage, endPage-sc.nextPage, 64)
		sc.nextPage = endPage
	}
	nominalRows := int64(hi-lo) * sc.k
	ctx.TouchMeta(float64(nominalRows) * 0.5)
	ctx.CPU(float64(nominalRows) * (ctx.Cost.ColScanIPR + float64(sc.preds)*ctx.Cost.PredIPR*0.25))
}

// Close issues the segment's sequential LLC touch.
func (sc *SegScanCursor) Close(ctx *Ctx) {
	if sc.nextPage == 0 {
		return
	}
	ctx.TouchSeq(sc.c.Ix.File.PageAddr(sc.off), sc.nextPage*storage.PageBytes, false, 8)
}

// ChargeDeltaScan charges scanning the delta store (uncompressed
// row-store pages at the tail of the index file).
func (c *CSI) ChargeDeltaScan(ctx *Ctx) int64 {
	n := c.Ix.DeltaNominalRows()
	if n == 0 {
		return 0
	}
	bytes := n * c.Ix.Table.RowWidth()
	pages := (bytes + storage.PageBytes - 1) / storage.PageBytes
	off := c.Ix.File.Pages - pages
	if off < 0 {
		off = 0
	}
	ctx.BP.Scan(ctx.P, c.Ix.File, off, pages, 64)
	ctx.TouchSeq(c.Ix.File.PageAddr(off), pages*storage.PageBytes, false, 8)
	ctx.CPU(float64(n) * ctx.Cost.RowScanIPR)
	return n
}

// ChargeDeltaInsert charges one nominal trickle insert into the delta
// store (the HTAP write path: row lands in the delta rowgroup page).
func (c *CSI) ChargeDeltaInsert(ctx *Ctx) {
	bytes := c.Ix.DeltaNominalRows() * c.Ix.Table.RowWidth()
	page := c.Ix.File.Pages - 1 + bytes/storage.PageBytes // hotspot tail page
	if page < 0 {
		page = 0
	}
	ctx.BP.Probe(ctx.P, c.Ix.File, page, true, ctx.Cost.RowOverheadNs)
	ctx.CPU(ctx.Cost.InsertInstr * 0.4)
}
