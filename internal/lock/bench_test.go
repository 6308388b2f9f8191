package lock

import (
	"testing"

	"repro/internal/sim"
)

// Lock-manager micro-benchmarks. One iteration is one Acquire with its
// Release, on the four paths an OLTP transaction takes: a key nobody
// else holds, a key shared with other readers, a key handed over from a
// writer to the next one queued behind it, and one of many keys a reader
// holds at once.

func benchInProc(b *testing.B, fn func(p *sim.Proc, m *Manager)) {
	s, m, _ := setup()
	s.Spawn("bench", func(p *sim.Proc) { fn(p, m) })
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(sim.Time(b.N) * sim.Time(sim.Second))
}

func BenchmarkLockUncontended(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, m *Manager) {
		for n := 0; n < b.N; n++ {
			k := Key{Obj: 1, Row: int64(n % 1024)}
			m.Acquire(p, 1, k, X)
			m.Release(1, k)
		}
	})
}

// BenchmarkLockShared: three readers on every key, so each entry outgrows its
// inline grant array before it empties.
func BenchmarkLockShared(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, m *Manager) {
		for n := 0; n < b.N; n += 3 {
			k := Key{Obj: 1, Row: int64(n % 1024)}
			for o := int64(1); o <= 3; o++ {
				m.Acquire(p, o, k, S)
			}
			for o := int64(1); o <= 3; o++ {
				m.Release(o, k)
			}
		}
	})
}

// BenchmarkLockManyKeys: TPC-E marketWatch's shape, one owner S-locking
// 100 rows and releasing them in reverse, so 100 keys share the table.
func BenchmarkLockManyKeys(b *testing.B) {
	benchInProc(b, func(p *sim.Proc, m *Manager) {
		for n := 0; n < b.N; n += 100 {
			lockManyKeys(p, m, 1, int64(n%1024))
		}
	})
}

// BenchmarkLockHandoff: two writers on one key, each holding it for a
// simulated microsecond, so every Acquire queues, parks and is granted by
// the other's Release.
func BenchmarkLockHandoff(b *testing.B) {
	s, m, _ := setup()
	k := Key{Obj: 1, Row: 1}
	for i := 0; i < 2; i++ {
		owner := int64(i + 1)
		s.Spawn("writer", func(p *sim.Proc) {
			for n := 0; n < b.N/2; n++ {
				m.Acquire(p, owner, k, X)
				p.Sleep(sim.Microsecond)
				m.Release(owner, k)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(sim.Time(b.N) * sim.Time(sim.Second))
}
