package buffer

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Buffer-pool micro-benchmarks: the host cost of warming a file at boot
// and of the two access paths on resident pages.

const benchPages = 1 << 20

// warmPool returns a pool holding one warm benchPages-page file.
func warmPool() (*sim.Sim, *Pool, *storage.File) {
	s, p, _ := setup(benchPages * storage.PageBytes)
	f := file(1, benchPages)
	p.Register(f)
	p.WarmFile(f)
	return s, p, f
}

// BenchmarkWarmFile: one WarmFile of a cold 1 M-page file, the per-file
// step of a server's boot.
func BenchmarkWarmFile(b *testing.B) {
	_, p, f := warmPool()
	fs := p.byID[f.ID]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clear(fs.resident)
		fs.nResident, p.resident = 0, 0
		b.StartTimer()
		p.WarmFile(f)
	}
}

// BenchmarkProbeResident: one point access that hits, latch included.
func BenchmarkProbeResident(b *testing.B) {
	s, p, f := warmPool()
	g := sim.NewRNG(1)
	s.Spawn("probe", func(proc *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Probe(proc, f, g.Int64n(benchPages), false, 0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(sim.Forever)
}

// BenchmarkScanResident: one 1024-page scan of resident pages, the
// word-at-a-time hit path.
func BenchmarkScanResident(b *testing.B) {
	s, p, f := warmPool()
	g := sim.NewRNG(1)
	s.Spawn("scan", func(proc *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Scan(proc, f, g.Int64n(benchPages-1024), 1024, 64)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(sim.Forever)
}
