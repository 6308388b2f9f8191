package wal

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkGroupCommit: closed-loop committers, each appending a 300-byte
// lump and waiting for it to be durable, then working for 20–51 simulated
// microseconds so that commits arrive while flushes are in flight. One
// iteration is one commit. resumes/commit is how often a committer was
// woken per WaitDurable: 1 when every wake is the flush that covered it.
func BenchmarkGroupCommit(b *testing.B) {
	for _, committers := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			s, l, _ := setup()
			commits, resumes := 0, uint64(0)
			for i := 0; i < committers; i++ {
				s.Spawn("committer", func(p *sim.Proc) {
					for commits < b.N {
						commits++
						before := p.Resumes()
						l.Commit(p, 300)
						resumes += p.Resumes() - before
						p.Sleep(sim.Duration(20+i%32) * sim.Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(sim.Time(b.N) * sim.Time(sim.Second))
			b.StopTimer()
			b.ReportMetric(float64(resumes)/float64(commits), "resumes/commit")
			l.Stop()
			s.Run(s.Now() + sim.Time(sim.Second))
		})
	}
}
