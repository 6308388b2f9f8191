package btree

import (
	"testing"

	"repro/internal/sim"
)

// B-tree micro-benchmarks: the host cost of one insert or one seek on
// the functional tree. Keys are carved from one backing array, as an
// index build carves them, so allocations are the tree's own.

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

// BenchmarkSeek: one point seek into a three-level tree of 100 000 keys.
func BenchmarkSeek(b *testing.B) {
	const n = 100_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7 % n
	}
	tr := New()
	for i, k := range keys(vals) {
		tr.Insert(k, int64(i))
	}
	key := Key{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = (key[0] + 7919) % n
		it := tr.Seek(key)
		sink += it.Value()
	}
}
