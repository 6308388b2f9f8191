package exec

import (
	"reflect"
	"testing"

	"repro/internal/storage"
)

// seqRows returns n rows of width columns, row r holding r*10+c in
// column c, so every cell names its position.
func seqRows(n, width int) []Row {
	rows := make([]Row, n)
	for r := range rows {
		rows[r] = make(Row, width)
		for c := range rows[r] {
			rows[r][c] = int64(r*10 + c)
		}
	}
	return rows
}

// checkBoundaries fails unless every batch but the last holds exactly
// size rows, the last holds 1..size, and all are compact.
func checkBoundaries(t *testing.T, bs []*Batch, size int) {
	t.Helper()
	for i, b := range bs {
		if b.Sel != nil {
			t.Fatalf("batch %d carries a selection", i)
		}
		for c, col := range b.Cols {
			if len(col) != b.Rows() {
				t.Fatalf("batch %d column %d has %d values for %d rows", i, c, len(col), b.Rows())
			}
		}
		if (i < len(bs)-1 && b.Rows() != size) || b.Rows() < 1 || b.Rows() > size {
			t.Fatalf("batch %d of %d holds %d rows, batch size %d", i, len(bs), b.Rows(), size)
		}
	}
}

// buildRows feeds rows to a builder told to expect `expect` rows,
// alternating single-row writes and range copies.
func buildRows(rows []Row, width, size, expect int) []*Batch {
	bb := newBatchBuilder(width, size, expect)
	src := make([][]int64, width)
	for c := range src {
		src[c] = make([]int64, len(rows))
		for r, row := range rows {
			src[c][r] = row[c]
		}
	}
	for lo := 0; lo < len(rows); {
		if lo%3 == 0 {
			dst, i := bb.room()
			for c := range dst.Cols {
				dst.Cols[c][i] = rows[lo][c]
			}
			lo++
			continue
		}
		hi := min(lo+77, len(rows))
		bb.appendSrcRange(src, lo, hi)
		lo = hi
	}
	return bb.finish()
}

// TestBatchBuilderKeepsBoundaries: whether the writer knows its row
// count or not, a batch is sealed only at size rows or at finish.
func TestBatchBuilderKeepsBoundaries(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 1023, 1024, 1025, 2500} {
		rows := seqRows(n, 3)
		for _, expect := range []int{0, n} {
			bs := buildRows(rows, 3, 1024, expect)
			checkBoundaries(t, bs, 1024)
			if want := (n + 1023) / 1024; len(bs) != want {
				t.Fatalf("%d rows, expect %d: %d batches, want %d", n, expect, len(bs), want)
			}
		}
	}
}

// TestSealedColumnsDoNotAlias: appending to a sealed column reallocates
// or writes its own spare capacity, never the next column's values.
func TestSealedColumnsDoNotAlias(t *testing.T) {
	for _, expect := range []int{0, 5} {
		rows := seqRows(5, 2)
		bs := buildRows(rows, 2, 8, expect)
		b := bs[0]
		before := append([]int64(nil), b.Cols[1]...)
		col0 := append(b.Cols[0], -1, -2, -3, -4, -5, -6, -7, -8)
		if !reflect.DeepEqual(b.Cols[1], before) {
			t.Fatalf("expect %d: column 1 = %v after appending to column 0, want %v", expect, b.Cols[1], before)
		}
		if col0[5] != -1 || len(b.Cols[0]) != 5 {
			t.Fatalf("expect %d: append to column 0 gave %v", expect, col0)
		}
	}
}

// TestBatchBuilderWrongExpect: a builder fed fewer or more rows than it
// was told emits exactly what an accurate one does.
func TestBatchBuilderWrongExpect(t *testing.T) {
	for _, n := range []int{1, 100, 1024, 3000} {
		rows := seqRows(n, 2)
		want := buildRows(rows, 2, 1024, n)
		for _, expect := range []int{1, n / 2, n - 1, n + 1, 2 * n, 10_000} {
			got := buildRows(rows, 2, 1024, expect)
			checkBoundaries(t, got, 1024)
			if len(got) != len(want) {
				t.Fatalf("%d rows, expect %d: %d batches, want %d", n, expect, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i].Cols, want[i].Cols) {
					t.Fatalf("%d rows, expect %d: batch %d differs", n, expect, i)
				}
			}
		}
	}
}

// TestHashJoinKeepsBuildOrder: an inner hash join lists a key's build
// rows in the order the build side produced them, at any DOP.
func TestHashJoinKeepsBuildOrder(t *testing.T) {
	var want []int64
	for _, dop := range []int{1, 4} {
		te := newTestEnv(dop)
		sch := storage.NewSchema("build",
			storage.Column{Name: "key", Type: storage.TInt, Width: 8},
			storage.Column{Name: "val", Type: storage.TInt, Width: 8},
		)
		build := storage.NewTable(3, sch, 1)
		want = want[:0]
		for i := int64(0); i < 80; i++ {
			key, val := i%7, (i*17)%80 // keys 0..6 besides the 50
			if i < 50 {
				key = 7 // 50 rows of one key, in a scrambled val order
				want = append(want, val)
			}
			build.AppendLoad([]int64{key, val})
		}
		build.Data.Region = te.env.M.ReserveRegion(build.NominalDataBytes())
		te.env.BP.Register(build.Data)
		probe := te.custTable() // ckey 7 appears once
		join := &Node{
			Kind:      KHashJoin,
			Left:      scanNode(build, []int{0, 1}, nil, 0, dop > 1),
			Right:     scanNode(probe, []int{0, 1}, func(r Row) bool { return r[0] == 7 }, 1, dop > 1),
			BuildKeys: []int{0}, ProbeKeys: []int{0},
			JoinType: InnerJoin, Weight: 1, Parallel: dop > 1,
		}
		rows, _ := te.run(join)
		var got []int64
		for _, r := range rows {
			got = append(got, r[3]) // probe(ckey, nation) ++ build(key, val)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dop %d: build vals %v, want %v", dop, got, want)
		}
	}
}

// FuzzBatchBuilder drives a builder with a width, a batch size, an
// expected row count (often wrong) and a sequence of single-row and
// range appends decoded from the input, and checks the batches against
// a plain []Row reference and the boundary rule.
func FuzzBatchBuilder(f *testing.F) {
	f.Add([]byte{2, 4, 0, 1, 2, 3, 200, 5, 9})
	f.Add([]byte{0, 3, 7, 0, 0, 0, 5, 1})
	f.Add([]byte{3, 31, 40, 250, 90, 1, 1, 128, 2, 12})
	f.Add([]byte{1, 1, 255, 77, 77, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		width, size, expect := int(data[0]%5), 1+int(data[1]%40), int(data[2])
		src := make([][]int64, width)
		for c := range src {
			src[c] = make([]int64, 64)
			for r := range src[c] {
				src[c][r] = int64(1000*c + r)
			}
		}
		bb := newBatchBuilder(width, size, expect)
		var ref []Row
		next := int64(-1)
		for _, op := range data[3:] {
			if op < 128 {
				// room: one row of fresh values.
				dst, i := bb.room()
				row := make(Row, width)
				for c := range row {
					row[c] = next
					dst.Cols[c][i] = next
					next--
				}
				ref = append(ref, row)
				continue
			}
			// appendSrcRange over a window of the source columns.
			lo := int(op) % 64
			hi := min(lo+int(op)%50, 64)
			bb.appendSrcRange(src, lo, hi)
			for r := lo; r < hi; r++ {
				row := make(Row, width)
				for c := range row {
					row[c] = src[c][r]
				}
				ref = append(ref, row)
			}
		}
		bs := bb.finish()
		checkBoundaries(t, bs, size)
		if bb.rows != len(ref) || batchRowCount(bs) != len(ref) {
			t.Fatalf("builder counts %d rows, batches hold %d, want %d", bb.rows, batchRowCount(bs), len(ref))
		}
		if got := batchesToRows(bs); len(ref) > 0 && !reflect.DeepEqual(got, ref) {
			t.Fatalf("width %d size %d expect %d: rows %v, want %v", width, size, expect, got, ref)
		}
	})
}
