// Command simstat validates the machine model with microbenchmarks:
// single-thread speed, SMT interference, turbo droop, LLC miss knees
// under CAT masks, and device bandwidth under throttles. Use it to sanity-
// check model changes before re-running workload experiments.
//
// With -series FILE it instead renders the telemetry time series from a
// dbsense -o FILE run as aligned summary tables (n/min/mean/max/p99
// plus a sparkline per series), refusing mixed-schema-version inputs.
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var seriesIn = flag.String("series", "", "render telemetry series from an emitter JSONL file and exit")

func main() {
	flag.Parse()
	if *seriesIn != "" {
		runSeries(*seriesIn)
		return
	}
	fmt.Println("machine:", hw.PaperSpec().LogicalCores(), "logical cores")

	// CPU: single-thread and SMT pair.
	one := cpuRun([]int{0}, 0)
	pair := cpuRun([]int{0, 16}, 0)
	pairStall := cpuRun([]int{0, 16}, 0.7e9)
	fmt.Printf("1 thread x 1G instr:            %.3fs\n", one)
	fmt.Printf("SMT pair, compute-bound:        %.3fs (%.2fx single)\n", pair, pair/one)
	fmt.Printf("SMT pair, stall-heavy:          %.3fs\n", pairStall)
	eight := cpuRun([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	fmt.Printf("8 cores on socket 0 (turbo off): %.3fs (%.2fx single)\n", eight, eight/one)

	// LLC: miss ratio vs CAT allocation for a 12 MB working set.
	t := core.Table{Headers: []string{"CAT MB", "miss ratio (12MB WS)"}}
	for _, mb := range []int{2, 4, 8, 12, 16, 24, 40} {
		t.AddRow(fmt.Sprint(mb), core.F(llcMissRatio(mb)))
	}
	fmt.Printf("\n%s", t.Render())

	// SSD: throughput under throttles.
	t2 := core.Table{Headers: []string{"read limit MB/s", "achieved MB/s"}}
	for _, lim := range []float64{0, 2000, 1000, 500, 100} {
		t2.AddRow(core.F(lim), core.F(ssdThroughput(lim)))
	}
	fmt.Printf("\n%s", t2.Render())
}

func cpuRun(cores []int, stallNs float64) float64 {
	s := sim.New(1)
	m := hw.New(s, hw.PaperSpec(), &metrics.Counters{})
	var last sim.Time
	for _, c := range cores {
		c := c
		s.Spawn("w", func(p *sim.Proc) {
			m.Exec(p, c, 1_000_000_000, stallNs)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	s.Run(sim.Time(100 * sim.Second))
	return last.Seconds()
}

func llcMissRatio(mb int) float64 {
	s := sim.New(1)
	m := hw.New(s, hw.PaperSpec(), &metrics.Counters{})
	m.SetCATMask(m.CATMaskForMB(mb))
	base := m.ReserveRegion(1 << 30)
	llc := m.LLC(0)
	var ratio float64
	s.Spawn("w", func(p *sim.Proc) {
		const ws = 12 << 20
		m.TouchSeq(0, base, ws, false, 8) // warm
		llc.ResetStats()
		for i := 0; i < 4; i++ {
			m.TouchSeq(0, base, ws, false, 8)
		}
		ratio = llc.Stats().MissRatio()
	})
	s.Run(sim.Time(10 * sim.Second))
	return ratio
}

func ssdThroughput(limitMBps float64) float64 {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	d := iodev.New(iodev.PaperSSD(), ctr)
	if limitMBps > 0 {
		d.SetThrottles(iodev.NewThrottle(limitMBps), nil)
	}
	var end sim.Time
	s.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			d.Read(p, 10<<20)
		}
		end = p.Now()
	})
	s.Run(sim.Time(1000 * sim.Second))
	if end == 0 {
		return 0
	}
	return float64(ctr.SSDReadBytes) / 1e6 / end.Seconds()
}
