package main

import (
	"time"
)

// A reference is a fixed piece of work the benchmark times right before
// and right after every timed phase, to learn how fast the host is
// running at that moment. The reference host is a few cores of a shared
// machine: the same binary on the same input runs 20-60 % slower for
// seconds or minutes at a time while neighbours keep the memory system
// busy, and process CPU time slows with wall time, so no clock inside
// the guest is any steadier (README.md, Noise). Host times are therefore
// reported at reference speed: the measured time divided by the
// reference's slowdown around it.
//
// The work is the two things a simulation's host time is made of:
// goroutine hand-offs (what the event loop does twice per event; short
// branchy code in the private caches) and dependent loads from a table
// larger than any private cache (what walking the engine's and the
// models' data structures costs). Each part is timed on its own and
// compared with its own nominal time; the slowdown weighs them 0.7 to
// 0.3, the mix that tracked the five workloads best over an hour of
// recorded repetitions (README.md, Noise). It calls nothing in the
// repository, so no change to the program can move it.
type reference struct {
	ping, pong chan struct{}
	table      []uint64
	x          uint64
}

const (
	refHandoffs = 1000
	refLoads    = 2000
	refLaps     = 5 // per reading; the median lap of each part counts
	loadsWeight = 0.3

	// Nominal lap times: the reference host's medians over that hour
	// (GOMAXPROCS=1). They only fix the scale host times are reported on.
	nominalHandoffs = 400 * time.Microsecond
	nominalLoads    = 600 * time.Microsecond
)

func newReference() *reference {
	r := &reference{
		ping:  make(chan struct{}),
		pong:  make(chan struct{}),
		table: make([]uint64, 1<<22), // 32 MB
		x:     88172645463325252,
	}
	for i := range r.table { // touch every page now, not inside a lap
		r.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	go func() {
		for range r.ping {
			r.pong <- struct{}{}
		}
		close(r.pong)
	}()
	return r
}

// stop ends the partner goroutine and waits for it.
func (r *reference) stop() {
	close(r.ping)
	<-r.pong
}

// slowdown takes refLaps laps and returns how much slower than nominal
// the host is running: 1 on a quiet reference host. A nil reference does
// no work and reports 1, so tests and one-off repetitions need none.
func (r *reference) slowdown() float64 {
	if r == nil {
		return 1
	}
	handoffs := make([]float64, refLaps)
	loads := make([]float64, refLaps)
	mask := uint64(len(r.table) - 1)
	for lap := range handoffs {
		t0 := time.Now()
		for i := 0; i < refHandoffs; i++ {
			r.ping <- struct{}{}
			<-r.pong
		}
		t1 := time.Now()
		x, j := r.x, r.x
		for i := 0; i < refLoads; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j = r.table[(j+x)&mask] + x
		}
		r.x = x + j&1
		handoffs[lap] = float64(t1.Sub(t0)) / float64(nominalHandoffs)
		loads[lap] = float64(time.Since(t1)) / float64(nominalLoads)
	}
	return (1-loadsWeight)*median(handoffs) + loadsWeight*median(loads)
}
