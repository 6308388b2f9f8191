package btree

import (
	"testing"

	"repro/internal/sim"
)

// B-tree micro-benchmarks: the host cost of one insert or one seek on
// the functional tree. Keys are carved from one backing array, so
// allocations are the tree's own.

var sink int64

// keys returns n one-component keys backed by one array, key i = vals[i].
func keys(vals []int64) []Key {
	out := make([]Key, len(vals))
	for i := range vals {
		out[i] = vals[i : i+1 : i+1]
	}
	return out
}

// BenchmarkInsertAscending: every key past the greatest, as an index
// build over ascending row IDs inserts them.
func BenchmarkInsertAscending(b *testing.B) {
	vals := make([]int64, b.N)
	for i := range vals {
		vals[i] = int64(i)
	}
	ks := keys(vals)
	tr := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range ks {
		tr.Insert(k, int64(i))
	}
}

// BenchmarkInsertRandom: uniformly random keys, the searching path.
func BenchmarkInsertRandom(b *testing.B) {
	g := sim.NewRNG(1)
	vals := make([]int64, b.N)
	for i := range vals {
		vals[i] = g.Int64n(1 << 40)
	}
	ks := keys(vals)
	tr := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range ks {
		tr.Insert(k, int64(i))
	}
}

// BenchmarkSeek: one point seek into a three-level tree of 100 000
// one-word keys, a unique single-column index.
func BenchmarkSeek(b *testing.B) { benchSeek(b, 1) }

// BenchmarkSeekWide: the same seeks into (value, row ID) keys, a
// non-unique index, searched by the value alone.
func BenchmarkSeekWide(b *testing.B) { benchSeek(b, 2) }

func benchSeek(b *testing.B, w int) {
	const n = 100_000
	tr := New()
	key := make(Key, w)
	for i := int64(0); i < n; i++ {
		key[0] = i * 7 % n
		for j := 1; j < w; j++ {
			key[j] = i
		}
		tr.Insert(key, i)
	}
	key = key[:1]
	key[0] = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = (key[0] + 7919) % n
		it := tr.Seek(key)
		sink += it.Value()
	}
}
