package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// hostSnap is the host-side state read at phase boundaries.
type hostSnap struct {
	at         time.Time
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	cpu        time.Duration // process user+system CPU
	gcCPU      float64       // seconds of CPU the collector used
}

func snapHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	s := hostSnap{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	s.at = time.Now()
	return s
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rep is one repetition: a fresh simulation set up and run once.
type rep struct {
	SetupS float64 // setup-phase host wall, as measured
	RunS   float64 // run-phase host wall, as measured
	// The host's slowdown (reference.slowdown) around each phase: the mean
	// of the readings taken right before and right after it.
	SetupSlow, RunSlow float64

	Host struct {
		Mallocs, AllocBytes uint64
		GCCycles            uint32
		CPUS, GCCPUS        float64
	}
	Sim    simResult
	Digest string
	Spans  []span // traced repetitions only
}

// runRep sets a workload up and runs it once. Garbage from earlier
// repetitions is collected before each timed phase so one repetition's
// datasets are not charged to the next.
func runRep(w workload, sz sizes, seed int64, tr *tracer, ref *reference) rep {
	var r rep
	first := 0
	if tr != nil {
		first = len(tr.spans)
		sim.EnableProfiling()
		defer sim.DisableProfiling()
	}

	// Every reading of the reference follows a completed collection: a
	// collector at work shares the one P with the reference's hand-offs
	// and would be read as a slow host.
	runtime.GC()
	var run func() simResult
	slow := ref.slowdown()
	t0 := time.Now()
	tr.do("setup", func() { run = w.Setup(seed, sz, tr) })
	r.SetupS = time.Since(t0).Seconds()

	runtime.GC()
	mid := ref.slowdown()
	r.SetupSlow = (slow + mid) / 2
	before := snapHost()
	tr.do("run", func() { r.Sim = run() })
	after := snapHost()
	if ref != nil {
		run = nil // the dataset is garbage now, which keeps this collection short
		runtime.GC()
	}
	r.RunSlow = (mid + ref.slowdown()) / 2

	r.RunS = after.at.Sub(before.at).Seconds()
	r.Host.Mallocs = after.mallocs - before.mallocs
	r.Host.AllocBytes = after.allocBytes - before.allocBytes
	r.Host.GCCycles = after.gcCycles - before.gcCycles
	r.Host.CPUS = (after.cpu - before.cpu).Seconds()
	r.Host.GCCPUS = after.gcCPU - before.gcCPU
	if tr != nil {
		r.Spans = tr.spans[first:]
	}
	r.Digest = r.Sim.digest()
	return r
}

// stat summarises one metric over the repetitions of a run.
type stat struct {
	Value float64 `json:"value"` // the median
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return telemetry.PercentileSorted(s, 50)
}

func summarise(unit string, xs []float64) stat {
	st := stat{Value: median(xs), Unit: unit, N: len(xs)}
	for i, x := range xs {
		if i == 0 || x < st.Min {
			st.Min = x
		}
		if i == 0 || x > st.Max {
			st.Max = x
		}
	}
	return st
}

// column applies f to every repetition.
func column(reps []rep, f func(rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// asMeasured is the two host times before they were brought to reference
// speed, and the slowdown the run phase was divided by: printed beside
// the end-to-end metrics so a reader sees what the scaling did.
func asMeasured(reps []rep) map[string]stat {
	return map[string]stat{
		"setup_s":             summarise("s", column(reps, func(r rep) float64 { return r.SetupS })),
		"host_wall_us_per_op": summarise("us/op", column(reps, func(r rep) float64 { return r.RunS * 1e6 / float64(max(r.Sim.Ops, 1)) })),
		"ref_slowdown":        summarise("ratio", column(reps, func(r rep) float64 { return r.RunSlow })),
	}
}

// endToEnd derives the end-to-end metrics from the untraced repetitions.
func endToEnd(reps []rep) map[string]stat {
	col := func(f func(rep) float64) []float64 { return column(reps, f) }
	perOp := func(f func(rep) float64) []float64 {
		return col(func(r rep) float64 { return f(r) / float64(max(r.Sim.Ops, 1)) })
	}
	s := reps[0].Sim // sim results are identical across repetitions
	one := func(unit string, v float64) stat { return summarise(unit, []float64{v}) }
	out := map[string]stat{
		"setup_s":              summarise("s", col(func(r rep) float64 { return r.SetupS / r.SetupSlow })),
		"host_wall_us_per_op":  summarise("us/op", perOp(func(r rep) float64 { return r.RunS / r.RunSlow * 1e6 })),
		"host_allocs_per_op":   summarise("count/op", perOp(func(r rep) float64 { return float64(r.Host.Mallocs) })),
		"host_alloc_kb_per_op": summarise("KB/op", perOp(func(r rep) float64 { return float64(r.Host.AllocBytes) / 1024 })),
		"sim_ops_per_s":        one("1/s", float64(s.Ops)/s.WindowS),
		"sim_p50_ms":           one("ms", s.P50Ms),
		"sim_p95_ms":           one("ms", s.P95Ms),
		"ok_op_share":          one("ratio", 1-float64(s.Failed)/float64(max(s.Attempted, 1))),
	}
	return out
}

// report is one workload's outcome over a run.
type report struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Digest    string          `json:"sim_digest"`
	Ops       int64           `json:"ops"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	LatencyN  int64           `json:"latency_n"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	Measured  map[string]stat `json:"as_measured"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	Errors    []string        `json:"errors,omitempty"`
}

// budget says how many repetitions a run makes: a fixed count, or as
// many as fit in a wall-clock allowance counted from Start (at least
// minReps). A repetition that would overrun the allowance, going by the
// last one's duration, is not started, so a run lasts about Seconds.
type budget struct {
	Reps    int
	Seconds float64
	Start   time.Time
}

const minReps = 2

func (b budget) more(done int, last time.Duration) bool {
	if b.Reps > 0 {
		return done < b.Reps
	}
	return done < minReps || (time.Since(b.Start)+last).Seconds() < b.Seconds
}

// runWorkload makes the untraced repetitions (and, with a tracer, traced
// ones alternating with them), checks the outputs, and assembles the
// report.
func runWorkload(w workload, sz sizes, seed int64, b budget, tr *tracer, ref *reference, probes map[string]float64) report {
	rp := report{Workload: w.Name, Seed: seed}
	fail := func(format string, a ...any) { rp.Errors = append(rp.Errors, fmt.Sprintf(format, a...)) }
	var plain, traced []rep
	if tr != nil {
		tr.workload = w.Name
	}
	var last time.Duration
	for n := 0; b.more(n, last); n++ {
		t0 := time.Now()
		plain = append(plain, runRep(w, sz, seed, nil, ref))
		if tr != nil {
			tr.rep = n
			traced = append(traced, runRep(w, sz, seed, tr, nil))
		}
		last = time.Since(t0)
	}
	for _, r := range slices.Concat(plain, traced) {
		if r.Sim.Err != nil {
			fail("%v", r.Sim.Err)
		}
		if r.Digest != plain[0].Digest {
			kind := "repetition"
			if r.Spans != nil {
				kind = "traced repetition"
			}
			fail("%s: %s digest %s differs from %s: the simulation is not a function of the seed", w.Name, kind, r.Digest, plain[0].Digest)
		}
	}
	s := plain[0].Sim
	rp.Digest, rp.Ops, rp.Attempted, rp.Failed, rp.LatencyN = plain[0].Digest, s.Ops, s.Attempted, s.Failed, s.LatN
	if s.Ops <= 0 {
		fail("%s: no operation completed in the measure window", w.Name)
	}
	rp.EndToEnd = endToEnd(plain)
	rp.Measured = asMeasured(plain)
	if tr != nil {
		rp.PerLayer = perLayer(plain, traced, probes)
	}
	return rp
}
