package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress receives sweep updates after each completed point: how many
// points are done out of the total, and the wall-clock time since the
// sweep started. Calls are serialized, so implementations need no
// locking of their own.
type Progress func(done, total int, elapsed time.Duration)

// Sweep runs fn(0), fn(1), ..., fn(n-1) on up to parallel worker
// goroutines (spread across GOMAXPROCS OS threads) and returns the
// results in input order. parallel <= 0 uses GOMAXPROCS.
//
// Every experiment point in this package boots its own sim.Sim,
// engine.Server, RNG, and Counters, so points share no mutable state and
// the schedule inside each point is untouched by how points are packed
// onto workers: a sweep's results are bit-identical at any parallelism.
// TestSweepSerialParallelIdentical asserts this, and CI runs the package
// under -race to prove the isolation claim.
func Sweep[T any](parallel, n int, fn func(i int) T, progress Progress) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	start := time.Now()
	var mu sync.Mutex
	done := 0
	report := func() {
		if progress == nil {
			return
		}
		mu.Lock()
		done++
		progress(done, n, time.Since(start))
		mu.Unlock()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
				report()
			}
		}()
	}
	wg.Wait()
	return out
}

// Point is one experiment point: a workload at a scale factor under a
// knob setting.
type Point struct {
	Workload Workload
	SF       int
	Knobs    Knobs
}

// RunPoints measures every point, fanning them across opt.Parallel
// workers, and returns the Results in input order. opt.Progress, when
// set, receives per-point completion updates.
func RunPoints(points []Point, opt Options) []Result {
	return Sweep(opt.Parallel, len(points), func(i int) Result {
		p := points[i]
		return runPoint(p.Workload, p.SF, opt, p.Knobs)
	}, opt.Progress)
}
