package harness

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// FaultSteps is the default fault-intensity axis of a resilience sweep.
// Intensity 0 is the recovery-enabled baseline the retention curve is
// normalized against; higher steps scale every fault axis's event rate.
var FaultSteps = []float64{0, 0.5, 1, 2, 4}

// ResiliencePoint is one intensity step's measurements.
type ResiliencePoint struct {
	Intensity  float64
	Throughput float64 // committed work only (retried successes count once)
	Retention  float64 // Throughput / step-0 Throughput

	FaultsInjected int64
	FaultIOErrors  int64
	IORetries      int64
	TxnRetries     int64
	QueryRetries   int64
	DeadlineKills  int64
	DegradedPlans  int64
	DegradedFailed int64 // QueriesFailed + QueriesCanceled
}

// ResilienceResult is one workload's throughput-retention curve.
type ResilienceResult struct {
	Workload Workload
	SF       int
	Points   []ResiliencePoint
}

// resilienceKnobs builds the knob set for one intensity step. Every step
// (including intensity 0) runs with the same statement deadline and retry
// policy, so retention isolates the impact of the faults themselves
// rather than of the recovery machinery.
func resilienceKnobs(opt Options, intensity float64) Knobs {
	return Knobs{
		Faults:      &fault.Config{Seed: opt.Seed, Intensity: intensity},
		StmtTimeout: 30 * sim.Second,
		Retry:       true,
	}
}

// Resilience sweeps a workload across the fault-intensity axis and
// reports throughput retention plus the robustness counters. steps nil
// uses FaultSteps; step 0 (or the lowest step) anchors retention.
func Resilience(w Workload, sf int, opt Options, steps []float64) ResilienceResult {
	if steps == nil {
		steps = FaultSteps
	}
	rs := Sweep(opt.Parallel, len(steps), func(i int) Result {
		return runPoint(w, sf, opt, resilienceKnobs(opt, steps[i]))
	}, opt.Progress)
	out := ResilienceResult{Workload: w, SF: sf}
	base := rs[0].Throughput
	for i, r := range rs {
		p := ResiliencePoint{
			Intensity:      steps[i],
			Throughput:     r.Throughput,
			FaultsInjected: r.Delta.FaultsInjected,
			FaultIOErrors:  r.Delta.FaultIOErrors,
			IORetries:      r.Delta.IORetries,
			TxnRetries:     r.Delta.TxnRetries,
			QueryRetries:   r.Delta.QueryRetries,
			DeadlineKills:  r.Delta.DeadlineKills,
			DegradedPlans:  r.Delta.DegradedPlans,
			DegradedFailed: r.Delta.QueriesFailed + r.Delta.QueriesCanceled,
		}
		if base > 0 {
			p.Retention = r.Throughput / base
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// String renders the curve as an aligned table.
func (r ResilienceResult) String() string {
	s := fmt.Sprintf("resilience %s sf=%d\n", r.Workload, r.SF)
	s += fmt.Sprintf("%9s %10s %9s %7s %8s %8s %8s %8s %7s %7s %7s\n",
		"intensity", "thruput", "retain%", "faults", "io-err", "io-rtry",
		"txn-rtry", "q-rtry", "dl-kill", "degrade", "failed")
	for _, p := range r.Points {
		s += fmt.Sprintf("%9.2f %10.2f %8.1f%% %7d %8d %8d %8d %8d %7d %7d %7d\n",
			p.Intensity, p.Throughput, p.Retention*100,
			p.FaultsInjected, p.FaultIOErrors, p.IORetries,
			p.TxnRetries, p.QueryRetries, p.DeadlineKills,
			p.DegradedPlans, p.DegradedFailed)
	}
	return s
}
