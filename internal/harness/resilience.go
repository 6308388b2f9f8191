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

// faultAxis is the resilience sweep's axis: a step is the intensity of
// the seed's fault injector. Every step (including intensity 0) runs with
// the same statement deadline and retry policy, so retention isolates the
// impact of the faults themselves rather than of the recovery machinery.
func faultAxis(seed int64) Axis {
	return Axis{"fault_intensity", func(k *Knobs, v float64) {
		k.Faults = &fault.Config{Seed: seed, Intensity: v}
		k.StmtTimeout = 30 * sim.Second
		k.Retry = true
	}}
}

// retention is step s's committed throughput over step 0's: the
// fraction of the fault-free baseline cell c keeps (0 when the baseline
// committed nothing).
func retention(g Grid, c, s int) float64 {
	ret := 0.0
	if base := g.Results[c][0].Throughput; base > 0 {
		ret = g.Results[c][s].Throughput / base
	}
	return ret
}

// RenderResilience renders a faultAxis grid, one retention table per
// cell: throughput (committed work only; retried successes count once)
// and the robustness counters at each intensity step.
func RenderResilience(g Grid) string {
	s := ""
	for c, cell := range g.Cells {
		s += fmt.Sprintf("resilience %s sf=%d\n", cell.Workload, cell.SF)
		s += fmt.Sprintf("%9s %10s %9s %7s %8s %8s %8s %8s %7s %7s %7s\n",
			"intensity", "thruput", "retain%", "faults", "io-err", "io-rtry",
			"txn-rtry", "q-rtry", "dl-kill", "degrade", "failed")
		for i, r := range g.Results[c] {
			d := r.Delta
			s += fmt.Sprintf("%9.2f %10.2f %8.1f%% %7d %8d %8d %8d %8d %7d %7d %7d\n",
				g.Steps[i], r.Throughput, retention(g, c, i)*100,
				d.FaultsInjected, d.FaultIOErrors, d.IORetries,
				d.TxnRetries, d.QueryRetries, d.DeadlineKills,
				d.DegradedPlans, d.QueriesFailed+d.QueriesCanceled)
		}
	}
	return s
}
