package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/colstore"
	"repro/internal/storage"
)

// csiTable builds a six-column table of nrows rows, where column c of
// row i holds val(i, c), and a columnstore over its columns in index
// order cols, with segments of segRows (≥ 64) rows.
func (te *testEnv) csiTable(nrows, segRows int, cols []int, val func(i, c int) int64) (*storage.Table, *access.CSI) {
	sc := make([]storage.Column, 6)
	for c := range sc {
		sc[c] = storage.Column{Name: fmt.Sprintf("c%d", c), Type: storage.TInt, Width: 8}
	}
	tab := storage.NewTable(4, storage.NewSchema("csi", sc...), colstore.NominalSegmentRows/int64(segRows))
	for i := 0; i < nrows; i++ {
		r := make([]int64, len(sc))
		for c := range r {
			r[c] = val(i, c)
		}
		tab.AppendLoad(r)
	}
	tab.Data.Region = te.env.M.ReserveRegion(tab.NominalDataBytes() + 1)
	te.env.BP.Register(tab.Data)
	csi := access.NewCSI(colstore.Build(5, tab, cols))
	csi.Ix.File.Region = te.env.M.ReserveRegion(csi.Ix.File.Bytes() + 1<<20)
	te.env.BP.Register(csi.Ix.File)
	return tab, csi
}

// FuzzColScanMatchesRowScan decodes a table of 193-448 rows (four to
// seven 64-row segments) with a columnstore whose column order is a
// rotation, possibly reversed, of the table's; a predicate on 1-3
// columns; a projection of a different column set; and a DOP of 1-8.
// The filtered columnstore scan must return the heap scan's rows, in
// the same order, and the rows it returns at DOP 1. At DOP below the
// segment count a worker runs several segments over the same scratch
// vectors.
func FuzzColScanMatchesRowScan(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x06, 0x00, 17, 200, 3, 91, 14, 255})
	f.Add([]byte{3, 0x1c, 0x23, 0x0b, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{7, 0x0a, 0x3f, 0x0e, 0, 128, 64})
	f.Add([]byte{1, 0x10, 0x00, 0x05, 90, 77, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		dop := 1 + int(data[0]%8)
		// Predicate columns: the set bits of data[1] among columns 1-5,
		// at most three, at least one.
		var predCols []int
		for c := 1; c <= 5 && len(predCols) < 3; c++ {
			if data[1]>>(c-1)&1 != 0 {
				predCols = append(predCols, c)
			}
		}
		if len(predCols) == 0 {
			predCols = []int{1 + int(data[1]>>5)%5}
		}
		// Projection: the set bits of data[2] among columns 0-5 (maybe
		// none), with column 0 toggled when that equals the predicate set.
		var proj []int
		projMask, predMask := data[2]&0x3f, byte(0)
		for _, c := range predCols {
			predMask |= 1 << c
		}
		if projMask == predMask {
			projMask ^= 1
		}
		for c := 5; c >= 0; c-- { // descending: the output order is the projection's
			if projMask>>c&1 != 0 {
				proj = append(proj, c)
			}
		}
		order := make([]int, 6)
		for i := range order {
			order[i] = (i + int(data[3]%6)) % 6
			if data[3]&8 != 0 {
				order[i] = 5 - order[i]
			}
		}
		vals := data[4:]
		nrows := 3*64 + 1 + int(vals[0])
		val := func(i, c int) int64 {
			if c == 0 {
				return int64(i)
			}
			return int64(vals[(i*(c+2)+c)%len(vals)]>>(c-1)) % int64(3+c)
		}
		pred := func(r Row) bool {
			for _, c := range predCols {
				if r[c] >= int64(2+c)/2 {
					return false
				}
			}
			return true
		}
		run := func(kind NodeKind, cores int) []Row {
			te := newTestEnv(cores)
			tab, csi := te.csiTable(nrows, 64, order, val)
			n := &Node{
				Kind: kind, Proj: proj, Pred: pred, NPred: len(predCols), PredCols: predCols,
				Weight: tab.K, Parallel: true, Name: "csi",
			}
			if kind == KColScan {
				n.CSI = csi
			} else {
				n.Heap = access.Heap{T: tab}
			}
			rows, _ := te.run(n)
			return rows
		}
		got := run(KColScan, dop)
		heap := run(KRowScan, dop)
		serial := run(KColScan, 1)
		if len(got)+len(heap) > 0 && !reflect.DeepEqual(got, heap) {
			t.Fatalf("DOP %d, pred on %v, proj %v, index order %v: columnstore %d rows %v, heap %d rows %v",
				dop, predCols, proj, order, len(got), got, len(heap), heap)
		}
		if len(got)+len(serial) > 0 && !reflect.DeepEqual(got, serial) {
			t.Fatalf("DOP %d, pred on %v, proj %v: %d rows, %d at DOP 1", dop, predCols, proj, len(got), len(serial))
		}
	})
}

// TestFilteredColScanAllocs pins the scan's per-scan and per-worker
// allocation: at DOP 4, a filtered scan whose predicate keeps no row
// makes as many allocations over 64 segments as over 8. Every segment's
// cursors are cut from one slab and each worker decodes into its own
// reused vectors.
func TestFilteredColScanAllocs(t *testing.T) {
	allocs := func(segs int) float64 {
		te := newTestEnv(4)
		_, csi := te.csiTable(segs*64, 64, []int{0, 1, 2, 3, 4, 5}, func(i, c int) int64 { return int64(i * c % 97) })
		n := &Node{
			Kind: KColScan, CSI: csi, Proj: []int{0, 2},
			Pred: func(r Row) bool { return r[1] < 0 }, NPred: 1, PredCols: []int{1},
			Weight: csi.Ix.Table.K, Parallel: true, Name: "csi",
		}
		te.run(n) // warm the buffer pool
		return testing.AllocsPerRun(10, func() { te.run(n) })
	}
	few, many := allocs(8), allocs(64)
	if many > few+colScanAllocSlack {
		t.Errorf("filtered scan allocates %v over 64 segments and %v over 8, want at most %v more", many, few, colScanAllocSlack)
	}
}

// colScanAllocSlack is the allocations TestFilteredColScanAllocs lets 56
// more segments add. Measured at DOP 4: 46 allocations over 8 segments and
// over 64; heap cursors and scratch made per segment gave 95 and 543.
const colScanAllocSlack = 8
