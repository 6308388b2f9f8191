package colstore

import (
	"repro/internal/storage"
)

// NominalSegmentRows is the nominal rowgroup size (SQL Server compresses
// rowgroups of up to 2^20 rows).
const NominalSegmentRows = 1 << 20

// MinNominalRatio floors the compression ratio used for *nominal sizing*.
// The synthetic generator's columns compress better than real TPC data
// (tiny dictionaries, regular sequences); real columnstores land around
// 2.5-3x on these schemas (the paper's Table 2: 128 GB for ~330 GB raw at
// TPC-H SF 300). Measured ratios below the floor are still reported by
// Segment.Ratio; only on-disk sizing is floored.
const MinNominalRatio = 0.50

func nominalRatio(r float64) float64 {
	if r < MinNominalRatio {
		return MinNominalRatio
	}
	return r
}

// Index is a columnstore index over a table: per-column compressed
// segments plus an uncompressed delta store for trickle inserts (the
// updatable nonclustered columnstore of the HTAP configuration).
type Index struct {
	Table *storage.Table
	Cols  []int // column ordinals included in the index (all, typically)
	File  *storage.File

	segs [][]*Segment // [colIdx][segment]
	// segBytes[ci][sg] is segs[ci][sg]'s nominal compressed bytes, fixed
	// when seal adds the segment; segSum is their total, so an insert
	// resizes the file in O(1) whatever the number of sealed segments.
	segBytes [][]int64
	segSum   int64

	// Delta store: row-major recent inserts not yet compressed.
	delta        [][]int64
	deltaNominal int64
}

// Build compresses the table's current contents into a columnstore index.
// The per-segment actual row count is the nominal rowgroup size divided by
// the table's replication factor, so segment *boundaries* match nominal
// rowgroup boundaries.
func Build(id int, tbl *storage.Table, cols []int) *Index {
	segRows := int(NominalSegmentRows / tbl.K)
	if segRows < 64 {
		segRows = 64
	}
	ix := &Index{
		Table: tbl,
		Cols:  cols,
		File:  &storage.File{ID: id, Name: tbl.Name + ".ncci"},
	}
	n := int(tbl.ActualRows())
	ix.segs = make([][]*Segment, len(cols))
	ix.segBytes = make([][]int64, len(cols))
	for ci, col := range cols {
		data := tbl.Col(col)
		w := int64(tbl.Cols[col].Width)
		for start := 0; start < n; start += segRows {
			end := start + segRows
			if end > n {
				end = n
			}
			ix.seal(ci, w, data[start:end])
		}
	}
	ix.resize()
	return ix
}

// seal compresses vals into a new segment of column position ci, whose
// values are w nominal bytes wide. The segment's nominal size — the
// nominal raw bytes it stands for, scaled by its measured compression
// ratio — is computed here, once, and added to segSum.
func (ix *Index) seal(ci int, w int64, vals []int64) {
	s := Encode(vals)
	b := int64(float64(int64(s.N)*ix.Table.K*w) * nominalRatio(s.Ratio()))
	ix.segs[ci] = append(ix.segs[ci], s)
	ix.segBytes[ci] = append(ix.segBytes[ci], b)
	ix.segSum += b
}

// resize sets the file's pages to the sealed segments' nominal bytes plus
// the delta store's, which is uncompressed row-major pages.
func (ix *Index) resize() {
	nominal := ix.segSum + ix.deltaNominal*ix.Table.RowWidth()
	ix.File.Pages = (nominal + storage.PageBytes - 1) / storage.PageBytes
}

// Segments returns the number of segments (rowgroups).
func (ix *Index) Segments() int {
	if len(ix.segs) == 0 {
		return 0
	}
	return len(ix.segs[0])
}

// Segment returns the compressed segment for a column ordinal (position
// in Cols) and segment index.
func (ix *Index) Segment(colPos, seg int) *Segment { return ix.segs[colPos][seg] }

// ColPos returns the position of table column `col` within the index, or
// -1 if the column is not indexed.
func (ix *Index) ColPos(col int) int {
	for i, c := range ix.Cols {
		if c == col {
			return i
		}
	}
	return -1
}

// NominalBytes returns the nominal compressed index size.
func (ix *Index) NominalBytes() int64 { return ix.File.Bytes() }

// SegmentNominalBytes returns the nominal compressed bytes of one
// column's segment — the I/O cost of scanning it at paper scale.
func (ix *Index) SegmentNominalBytes(colPos, seg int) int64 {
	return ix.segBytes[colPos][seg]
}

// AppendDelta adds one nominal row to the delta store (an OLTP insert
// maintained into the columnstore). Actual rows are materialized at the
// table's replication factor, mirroring Table.InsertNominal.
func (ix *Index) AppendDelta(row []int64) {
	ix.deltaNominal++
	if ix.deltaNominal%ix.Table.K == 0 || len(ix.delta) == 0 {
		r := make([]int64, len(ix.Cols))
		for i, c := range ix.Cols {
			if c < len(row) {
				r[i] = row[c]
			}
		}
		ix.delta = append(ix.delta, r)
	}
	ix.resize()
}

// DeltaNominalRows returns the nominal delta-store cardinality.
func (ix *Index) DeltaNominalRows() int64 { return ix.deltaNominal }

// DeltaRows returns the actual delta rows (for scans).
func (ix *Index) DeltaRows() [][]int64 { return ix.delta }

// CompressDelta simulates the tuple mover: when the delta store reaches a
// nominal rowgroup, its rows are compressed into new segments. Returns
// true if a rowgroup was closed.
func (ix *Index) CompressDelta() bool {
	if ix.deltaNominal < NominalSegmentRows || len(ix.delta) == 0 {
		return false
	}
	for ci, c := range ix.Cols {
		col := make([]int64, len(ix.delta))
		for ri, r := range ix.delta {
			col[ri] = r[ci]
		}
		ix.seal(ci, int64(ix.Table.Cols[c].Width), col)
	}
	ix.delta = nil
	ix.deltaNominal = 0
	ix.resize()
	return true
}

// AvgRatio returns the size-weighted average compression ratio.
func (ix *Index) AvgRatio() float64 {
	var raw, comp float64
	for ci := range ix.Cols {
		for _, s := range ix.segs[ci] {
			raw += float64(s.RawBytes)
			comp += float64(s.CompressedBytes())
		}
	}
	if raw == 0 {
		return 1
	}
	r := comp / raw
	if r > 1 {
		r = 1
	}
	return r
}
