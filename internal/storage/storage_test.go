package storage

import (
	"slices"
	"testing"
	"testing/quick"
)

func demoSchema() *Schema {
	return NewSchema("demo",
		Column{Name: "id", Type: TInt, Width: 8},
		Column{Name: "price", Type: TDecimal, Width: 8},
		Column{Name: "day", Type: TDate, Width: 4},
		Column{Name: "name", Type: TStr, Width: 25},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := demoSchema()
	if s.RowWidth() != 9+8+8+4+25 {
		t.Fatalf("row width = %d", s.RowWidth())
	}
	if s.Col("day") != 2 {
		t.Fatalf("col index = %d", s.Col("day"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Col on missing column should panic")
		}
	}()
	s.Col("missing")
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchema("bad", Column{Name: "a", Type: TInt, Width: 8}, Column{Name: "a", Type: TInt, Width: 8})
}

func TestTableNominalGeometry(t *testing.T) {
	tb := NewTable(1, demoSchema(), 100) // 1 actual row = 100 nominal
	for i := int64(0); i < 50; i++ {
		tb.AppendLoad([]int64{i, i * 10, i, 0})
	}
	if tb.ActualRows() != 50 {
		t.Fatalf("actual = %d", tb.ActualRows())
	}
	if tb.NominalRows() != 5000 {
		t.Fatalf("nominal = %d", tb.NominalRows())
	}
	rpp := tb.RowsPerPage()
	if rpp != (8192-96)/54 {
		t.Fatalf("rows per page = %d", rpp)
	}
	wantPages := (5000 + rpp - 1) / rpp
	if tb.Data.Pages != wantPages {
		t.Fatalf("pages = %d, want %d", tb.Data.Pages, wantPages)
	}
	if tb.PageOfNominal(0) != 0 || tb.PageOfNominal(rpp) != 1 {
		t.Fatal("page mapping wrong")
	}
	if got := tb.NominalDataBytes(); got != wantPages*PageBytes {
		t.Fatalf("nominal bytes = %d", got)
	}
}

// A reserved load regrows no column and loads what an unreserved one does.
func TestReserveLoadsWithoutRegrowing(t *testing.T) {
	plain, reserved := NewTable(1, demoSchema(), 100), NewTable(1, demoSchema(), 100)
	reserved.Reserve(101) // AllocsPerRun calls the load once more than asked
	row := make([]int64, 4)
	i := int64(0)
	if avg := testing.AllocsPerRun(100, func() {
		row[0], row[1], row[2] = i, i*10, i
		reserved.AppendLoad(row)
		i++
	}); avg != 0 {
		t.Fatalf("%v allocs per reserved row", avg)
	}
	for i := int64(0); i < 101; i++ {
		plain.AppendLoad([]int64{i, i * 10, i, 0})
	}
	if reserved.ActualRows() != 101 || reserved.Data.Pages != plain.Data.Pages {
		t.Fatalf("reserved: %d rows, %d pages; unreserved: %d pages", reserved.ActualRows(), reserved.Data.Pages, plain.Data.Pages)
	}
	for c := 0; c < 4; c++ {
		if !slices.Equal(reserved.Col(c), plain.Col(c)) {
			t.Fatalf("column %d differs from the unreserved load", c)
		}
	}
}

func TestToActualMapping(t *testing.T) {
	tb := NewTable(1, demoSchema(), 10)
	for i := int64(0); i < 20; i++ {
		tb.AppendLoad([]int64{i, 0, 0, 0})
	}
	if tb.ToActual(0) != 0 || tb.ToActual(9) != 0 || tb.ToActual(10) != 1 {
		t.Fatal("ToActual mapping wrong")
	}
	if a := tb.ToActual(205); a < 0 || a >= 20 {
		t.Fatalf("ToActual out of range: %d", a)
	}
}

func TestInsertNominalMaterializesEveryK(t *testing.T) {
	tb := NewTable(1, demoSchema(), 4)
	row := []int64{1, 2, 3, 0}
	for i := 0; i < 16; i++ {
		tb.InsertNominal(row)
	}
	if tb.NominalRows() != 16 {
		t.Fatalf("nominal = %d", tb.NominalRows())
	}
	// One materialized at the very first insert, then at every K boundary.
	if got := tb.ActualRows(); got != 4+1 {
		t.Fatalf("actual = %d, want 5", got)
	}
	tb.DeleteNominal()
	if tb.LiveNominalRows() != 15 || tb.NominalRows() != 16 {
		t.Fatal("delete should reduce live but not high-water")
	}
}

func TestRowGetSet(t *testing.T) {
	tb := NewTable(1, demoSchema(), 1)
	tb.AppendLoad([]int64{7, 100, 3, 0})
	if tb.Get(0, 1) != 100 {
		t.Fatal("Get wrong")
	}
	tb.Set(0, 1, 200)
	row := tb.Row(0, nil)
	if row[1] != 200 || row[0] != 7 {
		t.Fatalf("row = %v", row)
	}
	if len(tb.Col(0)) != 1 {
		t.Fatal("Col wrong")
	}
}

func TestStrPoolRoundTripProperty(t *testing.T) {
	p := NewStrPool()
	f := func(s string) bool {
		c := p.Code(s)
		c2 := p.Code(s) // interning is stable
		return c == c2 && p.Str(c) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if p.Str(-1) != "" || p.Str(1<<40) != "" {
		t.Fatal("out-of-range codes should be empty")
	}
}

func TestStrPoolMatchers(t *testing.T) {
	p := NewStrPool()
	lemon := p.Code("lemon chiffon")
	lime := p.Code("lime green")
	lemon2 := p.Code("lemonade pink")
	if _, ok := p.Lookup("lime green"); !ok {
		t.Fatal("lookup failed")
	}
	pre := p.MatchPrefix("lemon")
	if !pre[lemon] || !pre[lemon2] || pre[lime] {
		t.Fatalf("prefix match = %v", pre)
	}
	sub := p.MatchContains("green")
	if !sub[lime] || sub[lemon] {
		t.Fatalf("contains match = %v", sub)
	}
}

func TestFilePageAddr(t *testing.T) {
	f := &File{ID: 3, Region: 1 << 30, Pages: 100}
	if f.PageAddr(0) != 1<<30 {
		t.Fatal("page 0 addr")
	}
	if f.PageAddr(2)-f.PageAddr(1) != PageBytes {
		t.Fatal("page stride")
	}
	if f.Bytes() != 100*PageBytes {
		t.Fatal("file bytes")
	}
}
