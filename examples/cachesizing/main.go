// Cachesizing: a sufficient-LLC-capacity advisor across a workload mix —
// the paper's Table 4 use case. A server consolidating transactional and
// analytical tenants partitions its LLC with CAT; this example measures
// each tenant's sensitivity curve and reports the smallest allocation
// keeping each at >= 90% / 95% of full-cache performance, plus the
// leftover capacity the operator can repurpose.
package main

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	opt := harness.DefaultOptions()
	opt.Density = 60
	opt.Measure = 2 * sim.Second
	opt.Warmup = 1 * sim.Second
	opt.Users = 32

	steps := []float64{2, 8, 16, 40}
	tenants := []harness.Cell{
		{Workload: harness.WAsdb, SF: 2000},
		{Workload: harness.WTpce, SF: 5000},
		{Workload: harness.WTpch, SF: 100},
	}

	var results []harness.Grid
	totalNeed90 := 0.0
	for _, tn := range tenants {
		fmt.Printf("sweeping LLC for %s SF %d...\n", tn.Workload, tn.SF)
		g := harness.SweepAxis(harness.AxisLLC, steps, []harness.Cell{tn}, opt)
		results = append(results, g)
		x90, _ := g.Curve(0, harness.Throughput, "").SufficientCapacity(0.90)
		totalNeed90 += x90
	}

	tb := harness.Table4(results)
	fmt.Printf("\n%s\n", tb.Render())
	fmt.Printf("sum of 90%% allocations: %.0f MB of 40 MB", totalNeed90)
	if totalNeed90 < 40 {
		fmt.Printf(" -> %.0f MB reclaimable for other uses (the paper's Section 10 question)\n", 40-totalNeed90)
	} else {
		fmt.Println(" -> consolidation would degrade at least one tenant")
	}
}
