// Cloudsizing: pick the cheapest I/O-bandwidth SLO that meets a QPS
// target — the paper's Figure 5 use case, including the pitfall of
// assuming a linear bandwidth-to-performance response.
//
// A DBaaS provider prices service tiers by provisioned read bandwidth.
// Because the QPS response curve is concave, a linear model derived from
// the top tier over-provisions; this example quantifies the gap.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	opt := harness.DefaultOptions()
	opt.Density = 80
	opt.Measure = 5 * sim.Second
	opt.Warmup = 1 * sim.Second
	opt.MinQueries = 6

	tiers := []float64{100, 400, 800, 1600, 2500}
	fmt.Println("measuring TPC-H SF 300 under read-bandwidth tiers...")
	tpch300 := []harness.Cell{{Workload: harness.WTpch, SF: 300}}
	curve := harness.SweepAxis(harness.AxisReadBW, tiers, tpch300, opt).Curve(0, harness.Throughput, "")
	lin := curve.LinearReference()

	t := core.Table{Headers: []string{"tier MB/s", "measured QPS", "linear-model QPS"}}
	for i, p := range curve.Points {
		t.AddRow(core.F(p.X), core.F(p.Y), core.F(lin.Points[i].Y))
	}
	fmt.Print(t.Render())

	for _, frac := range []float64{0.5, 0.8, 0.9} {
		target := curve.Last().Y * frac
		actual, linear, ok := curve.AllocationForTarget(target)
		if !ok {
			continue
		}
		fmt.Printf("target %.0f%% of peak QPS: buy the %4.0f MB/s tier; a linear model buys %4.0f MB/s (%+.0f%%)\n",
			frac*100, actual, linear, 100*(linear/actual-1))
	}
}
