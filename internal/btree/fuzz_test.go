package btree

import (
	"slices"
	"testing"
)

// FuzzTreeMatchesSorted runs the input bytes as a program against a tree
// and a sorted slice of the keys inserted. The first byte picks the key
// width (1-3 words); then each operation byte picks insert, seek or a full
// iteration, and the bytes after it are its operands. Words are small, so
// duplicates and shared prefixes are common.
//
//	insert  w bytes: the key's words; the value is the insert's number
//	seek    1 byte: the prefix length (0..w), then that many bytes; the
//	        Seek and up to 126 Nexts after it must give the sorted keys
//	        from the first >= the prefix
//	iterate no operands: Min and Next must give the sorted keys, and
//	        every value once, with the key inserted under it
//
// Equal keys may come in any value order. Only the first 4 KB of an input
// run, so one input stays well under a second.
func FuzzTreeMatchesSorted(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 3, 0, 5, 1, 1, 4, 2})
	f.Add([]byte{1, 0, 1, 2, 0, 1, 2, 0, 3, 0, 1, 1, 1, 2})
	f.Add([]byte{2, 0, 7, 7, 7, 0, 7, 7, 6, 1, 2, 7, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := 1 + int(data[0]%3)
		data = data[1:min(len(data), 4096)]
		next := func() int64 { // the next operand, 0 once the input runs out
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b % 8)
		}
		tr := New()
		var sorted, byValue []Key
		for len(data) > 0 {
			op := data[0] % 3
			data = data[1:]
			switch op {
			case 0:
				k := make(Key, w)
				for j := range k {
					k[j] = next()
				}
				i, _ := slices.BinarySearchFunc(sorted, k, Compare)
				sorted = slices.Insert(sorted, i, k)
				tr.Insert(k, int64(len(byValue)))
				byValue = append(byValue, k)
			case 1:
				k := make(Key, next()%int64(w+1))
				for j := range k {
					k[j] = next()
				}
				i, _ := slices.BinarySearchFunc(sorted, k, Compare) // the first key >= k
				want := sorted[i:min(len(sorted), i+2*maxKeys)]     // far enough to leave a leaf
				got := seekFlat(tr, k, len(want))
				if !slices.EqualFunc(got, want, func(e entry, k Key) bool { return slices.Equal(e.k, k) }) {
					t.Fatalf("Seek(%v) gives %v, want keys %v", k, got, want)
				}
			case 2:
				seen := make([]bool, len(byValue))
				it := tr.Min()
				for j, k := range sorted {
					if !it.Valid() || !slices.Equal(it.Key(), k) {
						t.Fatalf("Min+Next entry %d: want key %v", j, k)
					}
					v := it.Value()
					if v < 0 || v >= int64(len(seen)) || seen[v] || !slices.Equal(byValue[v], k) {
						t.Fatalf("Min+Next entry %d: key %v with value %d, repeated or inserted under another key", j, k, v)
					}
					seen[v] = true
					it.Next()
				}
				if it.Valid() {
					t.Fatalf("Min+Next goes past the %d entries inserted", len(sorted))
				}
			}
			if tr.Len() != len(sorted) {
				t.Fatalf("Len %d, want %d", tr.Len(), len(sorted))
			}
		}
	})
}
