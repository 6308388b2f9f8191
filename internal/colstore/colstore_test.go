package colstore

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/storage"
)

func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		s := Encode(vals)
		got := s.DecodeRange(0, s.N, nil)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingSelection(t *testing.T) {
	// Constant column: zero-width packing is optimal (0 payload bits).
	constant := make([]int64, 10000)
	for i := range constant {
		constant[i] = 42
	}
	if s := Encode(constant); s.CompressedBytes() > 128 {
		t.Fatalf("constant column compressed to %d bytes", s.CompressedBytes())
	}
	// Long runs of two distant values: RLE wins (packing needs 40 bits,
	// dictionary needs a bit per value).
	runs := make([]int64, 10000)
	for i := 5000; i < 10000; i++ {
		runs[i] = 1_000_000_000_000
	}
	if s := Encode(runs); s.Enc != EncRLE {
		t.Fatalf("run column encoded as %v", s.Enc)
	}
	// Low-cardinality scattered column: dictionary wins over packing when
	// values are large but few.
	lowCard := make([]int64, 10000)
	for i := range lowCard {
		lowCard[i] = int64(i%7) * 1_000_000_007
	}
	if s := Encode(lowCard); s.Enc != EncDict {
		t.Fatalf("low-cardinality column encoded as %v", s.Enc)
	}
	// Dense sequential ints: packing wins.
	seq := make([]int64, 10000)
	g := sim.NewRNG(5)
	for i := range seq {
		seq[i] = int64(i) + g.Int64n(3)
	}
	if s := Encode(seq); s.Enc != EncPacked {
		t.Fatalf("sequential column encoded as %v", s.Enc)
	}
}

func TestCompressionRatios(t *testing.T) {
	constant := make([]int64, 100000)
	s := Encode(constant)
	if r := s.Ratio(); r > 0.001 {
		t.Fatalf("constant column ratio = %f", r)
	}
	g := sim.NewRNG(7)
	random := make([]int64, 100000)
	for i := range random {
		random[i] = g.Int63()
	}
	s = Encode(random)
	if r := s.Ratio(); r < 0.9 {
		t.Fatalf("incompressible column ratio = %f", r)
	}
}

func TestZoneMaps(t *testing.T) {
	s := Encode([]int64{5, 2, 9, 7})
	if s.MinVal != 2 || s.MaxVal != 9 || s.N != 4 {
		t.Fatalf("zone map: min=%d max=%d n=%d", s.MinVal, s.MaxVal, s.N)
	}
	empty := Encode(nil)
	if empty.N != 0 || len(empty.DecodeRange(0, empty.N, nil)) != 0 {
		t.Fatal("empty segment wrong")
	}
}

func testTable(k int64, rows int) *storage.Table {
	sch := storage.NewSchema("t",
		storage.Column{Name: "a", Type: storage.TInt, Width: 8},
		storage.Column{Name: "b", Type: storage.TInt, Width: 4},
	)
	tb := storage.NewTable(1, sch, k)
	g := sim.NewRNG(11)
	for i := 0; i < rows; i++ {
		tb.AppendLoad([]int64{int64(i), g.Int64n(100)})
	}
	return tb
}

func TestIndexBuildAndScan(t *testing.T) {
	tb := testTable(1000, 500)
	ix := Build(100, tb, []int{0, 1})
	if ix.Segments() < 1 {
		t.Fatal("no segments")
	}
	// Decoding all segments of column 0 reproduces the column.
	var got []int64
	for sg := 0; sg < ix.Segments(); sg++ {
		s := ix.Segment(0, sg)
		got = append(got, s.DecodeRange(0, s.N, nil)...)
	}
	want := tb.Col(0)
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d != %d", i, got[i], want[i])
		}
	}
	if ix.ColPos(1) != 1 || ix.ColPos(5) != -1 {
		t.Fatal("ColPos wrong")
	}
}

func TestIndexNominalSizeReflectsCompression(t *testing.T) {
	tb := testTable(1000, 500)
	ix := Build(100, tb, []int{0, 1})
	nominalRaw := tb.NominalRows() * (8 + 4)
	if ix.NominalBytes() >= nominalRaw {
		t.Fatalf("compressed nominal %d should be under raw %d", ix.NominalBytes(), nominalRaw)
	}
	if ix.NominalBytes() <= 0 {
		t.Fatal("nominal size zero")
	}
	if r := ix.AvgRatio(); r <= 0 || r > 1 {
		t.Fatalf("avg ratio = %f", r)
	}
}

func TestDeltaStoreAndTupleMover(t *testing.T) {
	tb := testTable(1<<18, 4) // K = 262144 so 4 nominal rowgroups fit quickly
	ix := Build(100, tb, []int{0, 1})
	before := ix.Segments()
	row := []int64{7, 8}
	for i := int64(0); i < NominalSegmentRows; i++ {
		ix.deltaNominal++ // bulk-simulate trickle without per-row refresh
	}
	ix.delta = append(ix.delta, []int64{7, 8})
	if !ix.CompressDelta() {
		t.Fatal("tuple mover did not run at rowgroup boundary")
	}
	if ix.Segments() != before+1 {
		t.Fatalf("segments = %d, want %d", ix.Segments(), before+1)
	}
	if ix.DeltaNominalRows() != 0 {
		t.Fatal("delta not cleared")
	}
	// Normal AppendDelta path grows nominal size.
	sz := ix.NominalBytes()
	for i := 0; i < 10; i++ {
		ix.AppendDelta(row)
	}
	if ix.DeltaNominalRows() != 10 {
		t.Fatalf("delta rows = %d", ix.DeltaNominalRows())
	}
	if ix.NominalBytes() <= sz {
		t.Fatal("delta inserts should grow nominal size")
	}
}

func TestSegmentNominalBytes(t *testing.T) {
	tb := testTable(100, 1000)
	ix := Build(100, tb, []int{0, 1})
	var total int64
	for sg := 0; sg < ix.Segments(); sg++ {
		b := ix.SegmentNominalBytes(0, sg)
		if b <= 0 {
			t.Fatalf("segment %d nominal bytes = %d", sg, b)
		}
		total += b
	}
	rawCol := tb.NominalRows() * 8
	if total >= rawCol {
		t.Fatalf("column compressed %d >= raw %d", total, rawCol)
	}
}

// TestDecodeRangeReusesDst holds DecodeRange to its contract for every
// encoding: a dst with room for the range is filled in place, so the
// result aliases it and the call allocates nothing.
func TestDecodeRangeReusesDst(t *testing.T) {
	packed := make([]int64, 600)
	rle := make([]int64, 600)
	dict := make([]int64, 600)
	for i := range packed {
		packed[i] = int64(i)*12345 + 7
		rle[i] = int64(i / 100)
		dict[i] = int64(i%3) * 1e12
	}
	for _, c := range []struct {
		want Encoding
		vals []int64
	}{{EncPacked, packed}, {EncRLE, rle}, {EncDict, dict}} {
		s := Encode(c.vals)
		if s.Enc != c.want {
			t.Fatalf("%v column encoded as %v", c.want, s.Enc)
		}
		dst := make([]int64, 0, 256)
		var out []int64
		allocs := testing.AllocsPerRun(100, func() {
			out = s.DecodeRange(123, 379, dst)
		})
		if allocs != 0 {
			t.Errorf("%v: DecodeRange allocates %.1f per call into a roomy dst, want 0", s.Enc, allocs)
		}
		if &out[0] != &dst[:1][0] {
			t.Errorf("%v: DecodeRange result does not alias dst", s.Enc)
		}
		for i, v := range out {
			if v != c.vals[123+i] {
				t.Fatalf("%v: row %d = %d, want %d", s.Enc, 123+i, v, c.vals[123+i])
			}
		}
	}
}
