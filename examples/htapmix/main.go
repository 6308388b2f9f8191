// Htapmix: run the hybrid workload and show the interplay between the
// transactional and analytical components plus the wait-statistics
// breakdown — the observability surface the paper reads from the DMVs.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload/htap"
)

func main() {
	d := htap.Build(htap.Config{Customers: 1000, ActualTradesPerCustomer: 4, Seed: 1})
	srv := engine.NewServer(engine.Config{Seed: 1})
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()

	fmt.Printf("database: %.2f GB data, %.2f GB index (trade columnstore ratio %.2f)\n",
		float64(d.DB.DataBytes())/(1<<30), float64(d.DB.IndexBytes())/(1<<30),
		d.TradeCSI.Ix.AvgRatio())

	var st htap.Stats
	until := sim.Time(6 * sim.Second)
	htap.Run(srv, d, 99, until, &st)
	srv.Sim.Run(until)
	srv.Stop()
	srv.Sim.Run(sim.Forever)

	secs := until.Seconds()
	fmt.Printf("\nOLTP component: %8.0f transactions/s (99 users)\n", float64(srv.Ctr.TxnCommits)/secs)
	fmt.Printf("DSS component:  %8.1f queries/h    (1 analytical user)\n", float64(srv.Ctr.QueriesDone)/secs*3600)
	fmt.Printf("columnstore delta: %d nominal trickle rows pending\n", d.TradeCSI.Ix.DeltaNominalRows())

	t := core.Table{Headers: []string{"wait type", "total ms", "share"}}
	var total float64
	for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
		total += float64(srv.Ctr.WaitNs[c])
	}
	for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
		ns := float64(srv.Ctr.WaitNs[c])
		if ns == 0 {
			continue
		}
		t.AddRow(c.String(), core.F(ns/1e6), fmt.Sprintf("%.1f%%", 100*ns/total))
	}
	fmt.Printf("\nwait statistics:\n%s", t.Render())
}
