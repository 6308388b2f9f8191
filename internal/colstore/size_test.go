package colstore

import (
	"testing"

	"repro/internal/storage"
)

// oracleSegBytes is one sealed segment's nominal compressed bytes,
// computed from the segment as the index once did on every resize.
func oracleSegBytes(ix *Index, ci int, s *Segment) int64 {
	w := int64(ix.Table.Cols[ix.Cols[ci]].Width)
	return int64(float64(int64(s.N)*ix.Table.K*w) * nominalRatio(s.Ratio()))
}

// oraclePages recomputes the index file's pages from scratch: every
// (column, sealed segment) pair's nominal bytes summed afresh, plus the
// delta store's uncompressed rows. It is the loop the running sum
// replaced, kept as the sum's oracle.
func oraclePages(ix *Index) int64 {
	var nominal int64
	for ci := range ix.Cols {
		for _, s := range ix.segs[ci] {
			nominal += oracleSegBytes(ix, ci, s)
		}
	}
	nominal += ix.deltaNominal * ix.Table.RowWidth()
	return (nominal + storage.PageBytes - 1) / storage.PageBytes
}

// checkSize fails unless the index's pages and every segment's nominal
// bytes equal the oracle's.
func checkSize(t testing.TB, ix *Index, when string) {
	t.Helper()
	if got, want := ix.File.Pages, oraclePages(ix); got != want {
		t.Fatalf("%s (%d segments, %d delta rows): %d pages, recomputed %d",
			when, ix.Segments(), ix.deltaNominal, got, want)
	}
	for ci := range ix.Cols {
		for sg, s := range ix.segs[ci] {
			if got, want := ix.SegmentNominalBytes(ci, sg), oracleSegBytes(ix, ci, s); got != want {
				t.Fatalf("%s: column position %d segment %d: %d nominal bytes, recomputed %d",
					when, ci, sg, got, want)
			}
		}
	}
}

// maxDeltaRows bounds the actual rows a size check's delta store
// materializes, so a small K does not make the check slow or large.
const maxDeltaRows = 4096

// checkSizeUnderInserts builds an index over rows loaded rows at
// replication factor k, then makes appends trickle inserts through
// AppendDelta and CompressDelta as an HTAP insert does, and holds the
// running size to the oracle after the build, after every insert near
// the start or next to a K boundary, and after every rowgroup close.
// appends is cut so that at most maxDeltaRows actual rows materialize.
func checkSizeUnderInserts(t testing.TB, rows int, k int64, cols []int, appends int) {
	t.Helper()
	appends = min(appends, maxDeltaRows*int(k))
	ix := Build(100, testTable(k, rows), cols)
	checkSize(t, ix, "after Build")
	row := []int64{-3, 1 << 40}
	closes := 0
	for i := 0; i < appends; i++ {
		ix.AppendDelta(row)
		if i < 64 || ix.deltaNominal%k <= 1 {
			checkSize(t, ix, "after AppendDelta")
		}
		if ix.CompressDelta() {
			closes++
			checkSize(t, ix, "after CompressDelta")
		}
	}
	checkSize(t, ix, "at the end")
	if want := appends / NominalSegmentRows; closes != want {
		t.Fatalf("%d appends closed %d rowgroups, want %d", appends, closes, want)
	}
}

// TestIndexSizeMatchesRecompute holds the running size to the oracle from
// an empty start, across K boundaries, at K = 1 and across two rowgroup
// closes, for an index over both columns, over both in reverse order, and
// over one.
func TestIndexSizeMatchesRecompute(t *testing.T) {
	for _, cols := range [][]int{{0, 1}, {1, 0}, {1}} {
		checkSizeUnderInserts(t, 0, 1000, cols, 5000)
		checkSizeUnderInserts(t, 500, 1, cols, 300)
		checkSizeUnderInserts(t, 3000, 1<<14, cols, 3<<14+5)
		checkSizeUnderInserts(t, 2000, 1<<18, cols, 2*NominalSegmentRows+7)
	}
}

// FuzzIndexSizeMatchesRecompute runs checkSizeUnderInserts on fuzzed
// (rows, K, appends): up to 4 096 loaded rows, K from 1 to 2^20, up to
// three rowgroups of inserts, and the index's columns in one of three
// orders.
func FuzzIndexSizeMatchesRecompute(f *testing.F) {
	f.Add(uint16(0), uint32(1000), uint32(5000), uint8(0))
	f.Add(uint16(500), uint32(1), uint32(300), uint8(1))
	f.Add(uint16(4095), uint32(1<<14), uint32(3<<14+5), uint8(2))
	f.Add(uint16(2000), uint32(1<<18), uint32(2*NominalSegmentRows+7), uint8(0))
	f.Fuzz(func(t *testing.T, rows uint16, k, appends uint32, order uint8) {
		cols := [][]int{{0, 1}, {1, 0}, {1}}[order%3]
		checkSizeUnderInserts(t, int(rows%4097), 1+int64(k%(1<<20)), cols,
			int(appends%(3*NominalSegmentRows+1)))
	})
}
