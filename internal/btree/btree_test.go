package btree

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{1}, Key{2}, -1},
		{Key{2}, Key{1}, 1},
		{Key{1, 2}, Key{1, 2}, 0},
		{Key{1}, Key{1, 0}, -1},
		{Key{1, 0}, Key{1}, 1},
		{Key{1, 5}, Key{1, 2}, 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(Key{i * 2}, i)
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := int64(0); i < 100; i++ {
		v, ok := tr.Get(Key{i * 2})
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i*2, v, ok)
		}
	}
	if _, ok := tr.Get(Key{1}); ok {
		t.Fatal("found missing key")
	}
}

func TestOrderedIterationMatchesSortedInsertsProperty(t *testing.T) {
	g := sim.NewRNG(17)
	f := func(nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		tr := New()
		var ref []int64
		for i := 0; i < n; i++ {
			k := g.Int64n(100000)
			tr.Insert(Key{k, int64(i)}, int64(i)) // rowid suffix for uniqueness
			ref = append(ref, k)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		it := tr.Min()
		for _, want := range ref {
			if !it.Valid() || it.Key()[0] != want {
				return false
			}
			it.Next()
		}
		return !it.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSeekPositionsAtFirstGE(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i += 10 {
		tr.Insert(Key{i}, i)
	}
	it := tr.Seek(Key{95})
	if !it.Valid() || it.Key()[0] != 100 {
		t.Fatalf("Seek(95) at %v", it.Key())
	}
	it = tr.Seek(Key{90})
	if !it.Valid() || it.Key()[0] != 90 {
		t.Fatalf("Seek(90) at %v", it.Key())
	}
	it = tr.Seek(Key{10000})
	if it.Valid() {
		t.Fatal("Seek past end should be invalid")
	}
	// Prefix seek: composite keys grouped by first component.
	tr2 := New()
	for i := int64(0); i < 10; i++ {
		for j := int64(0); j < 5; j++ {
			tr2.Insert(Key{i, j}, i*10+j)
		}
	}
	it = tr2.Seek(Key{3})
	if !it.Valid() || it.Key()[0] != 3 || it.Key()[1] != 0 {
		t.Fatalf("prefix seek at %v", it.Key())
	}
	count := 0
	for it.Valid() && it.Key()[0] == 3 {
		count++
		it.Next()
	}
	if count != 5 {
		t.Fatalf("prefix group size = %d", count)
	}
}

func TestSeekAllocatesNothing(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100_000; i++ { // three levels
		tr.Insert(Key{i * 7 % 100_000}, i)
	}
	key := Key{0}
	var sum int64
	avg := testing.AllocsPerRun(100, func() {
		key[0] = (key[0] + 7919) % 100_000
		it := tr.Seek(key)
		for n := 0; n < 100 && it.Valid(); n++ { // crosses leaves and an interior key
			sum += it.Value()
			it.Next()
		}
	})
	if avg != 0 || sum == 0 {
		t.Errorf("Seek + 100 Next: %v allocs (sum %d), want 0", avg, sum)
	}
}

func TestInsertPanicsOnOtherWidth(t *testing.T) {
	tr := New()
	tr.Insert(Key{1, 2}, 0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "1-word") || !strings.Contains(msg, "2-word") {
			t.Fatalf("Insert of a 1-word key into a 2-word tree: panic %q, want both widths named", msg)
		}
	}()
	tr.Insert(Key{3}, 1)
}

// Insert keeps a copy of its key: one buffer rewritten for every insert,
// down both the append path and the searching path, leaves the tree
// holding what was inserted.
func TestInsertCopiesKey(t *testing.T) {
	tr := New()
	buf := make(Key, 2)
	var want []Key
	for i := int64(0); i < 2000; i++ {
		buf[0], buf[1] = i%700, i // i%700 falls back below the greatest key
		tr.Insert(buf, i)
		want = append(want, Key{buf[0], buf[1]})
	}
	buf[0], buf[1] = -1, -1
	slices.SortFunc(want, func(a, b Key) int { return Compare(a, b) })
	it := tr.Min()
	for _, k := range want {
		if !it.Valid() || Compare(it.Key(), k) != 0 {
			t.Fatalf("iteration reached %v, want %v", it.Key(), k)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatalf("iteration past the %d inserted keys", len(want))
	}
}

func TestGeom(t *testing.T) {
	g := Geom{KeyWidth: 8, RowRefWidth: 9, NominalRows: 100_000_000}
	if g.LeafEntriesPerPage() != 8096/24 {
		t.Fatalf("leaf entries = %d", g.LeafEntriesPerPage())
	}
	if g.Height() < 3 || g.Height() > 5 {
		t.Fatalf("height for 100M rows = %d", g.Height())
	}
	if g.Pages() <= g.LeafPages() {
		t.Fatal("total pages should include internal levels")
	}
	small := Geom{KeyWidth: 8, RowRefWidth: 9, NominalRows: 10}
	if small.Height() != 1 || small.LeafPages() != 1 {
		t.Fatalf("small index: height=%d leaves=%d", small.Height(), small.LeafPages())
	}
	// Bytes grows with rows.
	if g.Bytes() <= small.Bytes() {
		t.Fatal("geometry bytes not monotone")
	}
}
