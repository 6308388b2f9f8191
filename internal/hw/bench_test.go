package hw

import (
	"testing"

	"repro/internal/sim"
)

// Hardware-model micro-benchmarks: the host cost of one Machine.Exec and
// of one TouchRandom batch, each with the simulator's self-profile off and
// armed, so that the profiler's own cost per call is the difference. One
// iteration is one call.

// offAndProfiled runs bench with the self-profile off, then armed.
func offAndProfiled(b *testing.B, bench func(b *testing.B)) {
	b.Run("off", bench)
	b.Run("profiled", func(b *testing.B) {
		sim.EnableProfiling()
		defer sim.DisableProfiling()
		bench(b)
	})
}

// BenchmarkExec: one proc running 1000-instruction bursts on one core, so
// every call takes the run slot at once and sleeps through its burst.
func BenchmarkExec(b *testing.B) {
	offAndProfiled(b, func(b *testing.B) {
		s, m, _ := newMachine()
		s.Spawn("w", func(p *sim.Proc) {
			for n := 0; n < b.N; n++ {
				m.Exec(p, 0, 1000, 0)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		s.Run(sim.Forever)
	})
}

// BenchmarkTouchRandom: four dependent accesses over a 1 GB region, a
// B-tree descent's shape, filtered through the LLC and charged to DRAM.
func BenchmarkTouchRandom(b *testing.B) {
	offAndProfiled(b, func(b *testing.B) {
		s, m, _ := newMachine()
		base := m.ReserveRegion(1 << 30)
		s.Spawn("w", func(p *sim.Proc) {
			for n := 0; n < b.N; n++ {
				m.TouchRandom(0, base, 1<<30, 4, false, 1, p.RNG().Float64)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		s.Run(sim.Forever)
	})
}
