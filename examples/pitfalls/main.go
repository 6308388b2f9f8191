// Pitfalls: demonstrations of the paper's Section 9 antipatterns on the
// simulated server.
//
//  1. Pitfall 2 — running analytical queries against a row-store layout:
//     the same TPC-H query template executes against the columnstore
//     (the correct DW configuration) and against the row image, showing
//     the batch-mode + compression gap.
//  2. Pitfall 1 — judging a design from a single scale factor: the same
//     query's parallelism sensitivity at SF 10 versus SF 300.
package main

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/workload/tpch"
)

func main() {
	fmt.Println("pitfall 2: analytical scan on row store vs columnstore")
	d := tpch.Build(tpch.Config{SF: 30, ActualLineitemPerSF: 150, Seed: 1})
	srv := engine.NewServer(engine.Config{Seed: 1})
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()

	// A Q6-shaped aggregate authored twice: once letting the optimizer
	// use the columnstore, once forcing the row image.
	sd := d.L.Schema.Col("l_shipdate")
	mk := func(useCSI bool) *opt.LNode {
		scan := &opt.LNode{
			Kind: opt.LScan,
			Heap: access.Heap{T: d.L},
			Proj: []int{d.L.Schema.Col("l_extendedprice"), d.L.Schema.Col("l_discount")},
			Pred: func(r exec.Row) bool {
				return r[sd] >= tpch.Date(1994, 1, 1) && r[sd] < tpch.Date(1995, 1, 1)
			},
			NPred: 1, PredCols: []int{sd}, Sel: 365.0 / float64(tpch.DateHi),
			Name: "lineitem",
		}
		if useCSI {
			scan.CSI = d.DB.CSIOf(d.L)
		}
		return &opt.LNode{
			Kind: opt.LAgg, Left: scan,
			Aggs:    []exec.AggSpec{{Kind: exec.AggSum, Col: 0}, {Kind: exec.AggCount}},
			NGroups: 1, Name: "sum",
		}
	}
	var tCol, tRow sim.Duration
	srv.Sim.Spawn("q", func(p *sim.Proc) {
		sess := srv.Open(p)
		defer sess.Close()
		tCol = sess.Query(mk(true), engine.QueryOptions{}).Elapsed
		tRow = sess.Query(mk(false), engine.QueryOptions{}).Elapsed
		p.Sim().Halt()
	})
	srv.Sim.Run(sim.Forever)
	fmt.Printf("  columnstore scan: %8.3f s\n", tCol.Seconds())
	fmt.Printf("  row-store scan:   %8.3f s  (%.1fx slower)\n",
		tRow.Seconds(), float64(tRow)/float64(tCol))
	srv.Stop()

	fmt.Println("\npitfall 1: single-scale-factor conclusions (Q6 DOP sensitivity)")
	for _, sf := range []int{10, 300} {
		d := tpch.Build(tpch.Config{SF: sf, ActualLineitemPerSF: 100, Seed: 1})
		s2 := engine.NewServer(engine.Config{Seed: 1})
		s2.AttachDB(d.DB)
		s2.WarmBufferPool()
		s2.Start()
		g := sim.NewRNG(1)
		t1 := tpch.QueryTiming(s2, d, 6, 1, 0, g)
		g2 := sim.NewRNG(1)
		t32 := tpch.QueryTiming(s2, d, 6, 32, 0, g2)
		fmt.Printf("  SF %-4d Q6: dop1 %8.3fs  dop32 %8.3fs  speedup %.1fx\n",
			sf, t1.Seconds(), t32.Seconds(), float64(t1)/float64(t32))
		s2.Stop()
	}
	fmt.Println("  a conclusion drawn at SF 10 alone would call Q6 parallelism-insensitive")
	fmt.Println("  (the optimizer keeps it serial there); at SF 300 it is anything but.")
}
