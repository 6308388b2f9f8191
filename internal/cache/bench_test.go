package cache

import (
	"testing"

	"repro/internal/sim"
)

// LLC micro-benchmarks: the host cost of one simulated line access on each
// path through the model, on the paper's geometry. One iteration is one
// simulated access — the cache's stamp counts them — so a bulk touch of k
// sampled lines advances the loop by k (the last call may overshoot b.N by
// less than one touch; run with a -benchtime of a million or more).

func benchTouches(b *testing.B, c *LLC, touch func()) {
	touch() // warm: the measured touches see a full cache
	b.ReportAllocs()
	b.ResetTimer()
	for end := c.stamp + uint64(b.N); c.stamp < end; {
		touch()
	}
}

// BenchmarkSequentialStream: a 200 MB read, 10x the cache — the capped
// streaming path, every access a miss with a full victim walk.
func BenchmarkSequentialStream(b *testing.B) {
	c := New(PaperLLC())
	benchTouches(b, c, func() { c.Sequential(0, 200<<20, false) })
}

// BenchmarkSequentialResident: a 4 MB region re-read — every access a hit.
func BenchmarkSequentialResident(b *testing.B) {
	c := New(PaperLLC())
	benchTouches(b, c, func() { c.Sequential(0, 4<<20, false) })
}

// BenchmarkRandomHot: uniform draws over 14 MB (the engine's MetaBytes hot
// set, resident under a full mask), 4096 simulated per call.
func BenchmarkRandomHot(b *testing.B) {
	c := New(PaperLLC())
	pos := sim.NewRNG(1).Float64
	benchTouches(b, c, func() { c.Random(0, 14<<20, 4096*64, false, pos) })
}

// BenchmarkRandomCold: uniform draws over 1 GB — nearly every one a miss.
func BenchmarkRandomCold(b *testing.B) {
	c := New(PaperLLC())
	pos := sim.NewRNG(1).Float64
	benchTouches(b, c, func() { c.Random(0, 1<<30, 4096*64, false, pos) })
}

// BenchmarkMaskedMiss: the streaming read under a 2-way CAT mask — the
// victim walk over the allowed-way list.
func BenchmarkMaskedMiss(b *testing.B) {
	c := New(PaperLLC())
	c.SetWayMask(0x3)
	benchTouches(b, c, func() { c.Sequential(0, 200<<20, false) })
}

// BenchmarkHitOutsideMask: a 16 MB region made resident under the full
// mask, re-read under a 2-way mask — hits in ways CAT no longer allocates.
func BenchmarkHitOutsideMask(b *testing.B) {
	c := New(PaperLLC())
	c.Sequential(0, 16<<20, false)
	c.SetWayMask(0x3)
	benchTouches(b, c, func() { c.Sequential(0, 16<<20, false) })
}

// BenchmarkColdFill: flush, then refill all 20 MB — every access a miss
// into an invalid way (the first-zero scan), the two table clears spread
// over the 5120 fills that follow.
func BenchmarkColdFill(b *testing.B) {
	c := New(PaperLLC())
	benchTouches(b, c, func() { c.Flush(); c.Sequential(0, 20<<20, false) })
}
