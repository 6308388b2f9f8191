package sim

import "testing"

// Kernel micro-benchmarks: the host cost of one event on each of the
// dispatch paths, and of the event heap alone. One iteration is one event.

// BenchmarkHandoff: two procs sleeping in step, so every event hands
// control from one proc's carrier to the other's.
func BenchmarkHandoff(b *testing.B) {
	s := New(1)
	for i := 0; i < 2; i++ {
		s.Spawn("pp", func(p *Proc) {
			for n := 0; n < b.N/2; n++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(b.N) * Time(Second))
}

// BenchmarkSelfResume: one sleeper, whose own wakeup is always the next
// event — no switch.
func BenchmarkSelfResume(b *testing.B) {
	s := New(1)
	s.Spawn("alone", func(p *Proc) {
		for n := 0; n < b.N; n++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(b.N) * Time(Second))
}

// BenchmarkSpawn: one proc's lifetime — spawned, dispatched onto a carrier
// from the free list, run to its return, its carrier put back. One
// iteration is one proc, not one event.
func BenchmarkSpawn(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Spawn("once", func(*Proc) {})
		s.Run(s.Now())
	}
}

// BenchmarkWakeOne: two procs alternately WakeOne each other through two
// WaitQueues, so every event is due now and takes the ready FIFO, never
// the heap.
func BenchmarkWakeOne(b *testing.B) {
	s := New(1)
	var q [2]WaitQueue
	for i := 0; i < 2; i++ {
		s.Spawn("waker", func(p *Proc) {
			for n := 0; n < b.N/2; n++ {
				q[1-i].WakeOne(s)
				q[i].Wait(p)
			}
			q[1-i].WakeOne(s)
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Forever)
	if s.Live() != 0 {
		b.Fatalf("%d procs still live", s.Live())
	}
}

// BenchmarkSchedule: push one future event and pop the earliest with
// 10 000 pending, the heap cost inside every timed event above.
func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	g := NewRNG(1)
	p := &Proc{sim: s}
	for i := 0; i < 10_000; i++ {
		s.schedule(Time(g.Int64n(1_000_000)), p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.schedule(s.events[0].at+Time(g.Int64n(1_000_000)), p)
		s.pop()
	}
}

// BenchmarkWaitTimeoutWoken: 128 procs re-arming a 10 s timeout on a queue
// that a ticker wakes every 50 µs (timeoutHerd) — every wait is woken, and
// every event delivered leaves one stale timeout wakeup behind.
func BenchmarkWaitTimeoutWoken(b *testing.B) {
	const procs = 128
	s := New(1)
	stop := false
	timeoutHerd(s, procs, &stop, func() {})
	tick := Time(50 * Microsecond) // delivers procs+1 events
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(tick * Time(b.N/(procs+1)+1))
	b.StopTimer()
	stop = true
	s.Run(s.Now() + tick)
}
