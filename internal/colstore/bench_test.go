package colstore

import (
	"fmt"
	"testing"
)

// BenchmarkAppendDelta times one trickle insert into the delta store of a
// two-column index with 1 sealed segment per column and with 1 500 (3 000
// (column, segment) pairs, about what htap_mixed's Trade index holds): an
// insert's cost must not grow with the number of sealed segments.
func BenchmarkAppendDelta(b *testing.B) {
	const k = 1 << 14 // NominalSegmentRows / k = 64 actual rows per segment
	row := []int64{7, 8}
	for _, segs := range []int{1, 1500} {
		ix := Build(100, testTable(k, 64*segs), []int{0, 1})
		b.Run(fmt.Sprintf("pairs=%d", len(ix.Cols)*ix.Segments()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.AppendDelta(row)
			}
		})
	}
}
