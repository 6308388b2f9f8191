package btree

import (
	"sort"
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

func TestDeleteRandomizedAgainstReference(t *testing.T) {
	g := sim.NewRNG(99)
	tr := New()
	ref := make(map[int64]int64)
	var keys []int64
	for i := 0; i < 5000; i++ {
		k := g.Int64n(10000)
		if _, exists := ref[k]; exists {
			continue
		}
		tr.Insert(Key{k}, int64(i))
		ref[k] = int64(i)
		keys = append(keys, k)
	}
	// Delete half in random order.
	perm := g.Perm(len(keys))
	for _, idx := range perm[:len(perm)/2] {
		k := keys[idx]
		if !tr.Delete(Key{k}) {
			t.Fatalf("Delete(%d) failed", k)
		}
		delete(ref, k)
	}
	if tr.Len() != len(ref) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(ref))
	}
	// Everything remaining is present with the right value; everything
	// deleted is gone.
	for _, k := range keys {
		v, ok := tr.Get(Key{k})
		want, exists := ref[k]
		if ok != exists || (ok && v != want) {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, v, ok, want, exists)
		}
	}
	// Iteration still sorted.
	it := tr.Min()
	prev := int64(-1)
	n := 0
	for it.Valid() {
		if it.Key()[0] <= prev {
			t.Fatalf("order violated: %d after %d", it.Key()[0], prev)
		}
		prev = it.Key()[0]
		n++
		it.Next()
	}
	if n != len(ref) {
		t.Fatalf("iterated %d, want %d", n, len(ref))
	}
}

func TestDeleteMissingReturnsFalse(t *testing.T) {
	tr := New()
	tr.Insert(Key{5}, 1)
	if tr.Delete(Key{6}) {
		t.Fatal("deleted missing key")
	}
	if !tr.Delete(Key{5}) || tr.Len() != 0 {
		t.Fatal("delete of present key failed")
	}
	if tr.Delete(Key{5}) {
		t.Fatal("double delete succeeded")
	}
}

func TestDeleteEverythingProperty(t *testing.T) {
	g := sim.NewRNG(3)
	f := func(nRaw uint16) bool {
		n := int(nRaw%500) + 1
		tr := New()
		ks := make([]int64, 0, n)
		seen := make(map[int64]bool)
		for i := 0; i < n; i++ {
			k := g.Int64n(5000)
			if seen[k] {
				continue
			}
			seen[k] = true
			tr.Insert(Key{k}, k)
			ks = append(ks, k)
		}
		for _, idx := range g.Perm(len(ks)) {
			if !tr.Delete(Key{ks[idx]}) {
				return false
			}
		}
		it := tr.Min()
		return tr.Len() == 0 && !it.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
