package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload/tpch"
)

// Workload identifies one of the paper's four workload classes.
type Workload string

// Workloads.
const (
	WTpch Workload = "tpch"
	WTpce Workload = "tpce"
	WAsdb Workload = "asdb"
	WHtap Workload = "htap"
)

// PaperSFs returns the scale factors the paper uses for a workload.
func PaperSFs(w Workload) []int {
	for _, row := range workloads {
		if row.name == w {
			return row.sfs
		}
	}
	return nil
}

// CoreSteps is the paper's core-allocation sweep: socket 0's physical
// cores, then socket 1's, then all second hyperthreads.
var CoreSteps = []int{1, 2, 4, 8, 12, 16, 32}

// LLCSteps is the paper's CAT sweep in MB (2 MB granularity; a subset of
// the 20 steps keeps sweeps affordable — pass your own for finer grids).
var LLCSteps = []int{2, 4, 6, 8, 10, 12, 16, 20, 28, 40}

// Fig2CoresResult holds one workload's core-sensitivity curves.
type Fig2CoresResult struct {
	Workload Workload
	PerfBySF map[int]core.Curve // throughput vs logical cores
}

// Fig2Cores reproduces Figure 2 (a, d, g, j): throughput versus number
// of logical cores with the full 40 MB LLC.
func Fig2Cores(w Workload, sfs []int, steps []int, opt Options) Fig2CoresResult {
	if steps == nil {
		steps = CoreSteps
	}
	var pts []Point
	for _, sf := range sfs {
		for _, n := range steps {
			pts = append(pts, Point{Workload: w, SF: sf, Knobs: Knobs{Cores: n}})
		}
	}
	rs := RunPoints(pts, opt)
	out := Fig2CoresResult{Workload: w, PerfBySF: map[int]core.Curve{}}
	i := 0
	for _, sf := range sfs {
		c := core.Curve{Name: fmt.Sprintf("%s-sf%d", w, sf)}
		for _, n := range steps {
			c.Add(float64(n), rs[i].Throughput)
			i++
		}
		out.PerfBySF[sf] = c
	}
	return out
}

// Fig2LLCResult holds LLC-sensitivity curves: performance and MPKI.
type Fig2LLCResult struct {
	Workload Workload
	PerfBySF map[int]core.Curve // throughput vs LLC MB (b, e, h, k)
	MPKIBySF map[int]core.Curve // MPKI vs LLC MB (c, f, i, l)
}

// Fig2LLC reproduces Figure 2 (b/c, e/f, h/i, k/l): throughput and cache
// MPKI versus LLC allocation with all 32 cores.
func Fig2LLC(w Workload, sfs []int, steps []int, opt Options) Fig2LLCResult {
	if steps == nil {
		steps = LLCSteps
	}
	var pts []Point
	for _, sf := range sfs {
		for _, mb := range steps {
			pts = append(pts, Point{Workload: w, SF: sf, Knobs: Knobs{LLCMB: mb}})
		}
	}
	rs := RunPoints(pts, opt)
	out := Fig2LLCResult{Workload: w, PerfBySF: map[int]core.Curve{}, MPKIBySF: map[int]core.Curve{}}
	i := 0
	for _, sf := range sfs {
		perf := core.Curve{Name: fmt.Sprintf("%s-sf%d", w, sf)}
		mpki := core.Curve{Name: fmt.Sprintf("%s-sf%d-mpki", w, sf)}
		for _, mb := range steps {
			perf.Add(float64(mb), rs[i].Throughput)
			mpki.Add(float64(mb), rs[i].MPKI)
			i++
		}
		out.PerfBySF[sf] = perf
		out.MPKIBySF[sf] = mpki
	}
	return out
}

// Table4 derives the sufficient-LLC-capacity table from Fig2LLC results.
func Table4(results []Fig2LLCResult) core.Table {
	t := core.Table{Headers: []string{"Workload", "SF", "Perf>=90%", "Perf>=95%"}}
	for _, res := range results {
		for _, sf := range sortedKeys(res.PerfBySF) {
			c := res.PerfBySF[sf]
			x90, _ := c.SufficientCapacity(0.90)
			x95, _ := c.SufficientCapacity(0.95)
			t.AddRow(string(res.Workload), fmt.Sprint(sf),
				fmt.Sprintf("%.0f MB", x90), fmt.Sprintf("%.0f MB", x95))
		}
	}
	return t
}

func sortedKeys(m map[int]core.Curve) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Table3Result is the TPC-E wait-ratio comparison across scale factors.
type Table3Result struct {
	SmallSF, LargeSF int
	Ratios           []core.Ratio // LargeSF / SmallSF per wait class
	SumLockLatchPage core.Ratio
}

// Table3 reproduces the lock/latch wait-time ratios between TPC-E scale
// factors (paper: SF 15000 vs SF 5000).
func Table3(smallSF, largeSF int, opt Options) Table3Result {
	waits := Sweep(opt.Parallel, 2, func(i int) Result {
		sf := smallSF
		if i == 1 {
			sf = largeSF
		}
		r, _ := TPCEWaits(sf, opt, Knobs{})
		return r
	}, opt.Progress)
	rs, rl := waits[0], waits[1]
	classes := []metrics.WaitClass{
		metrics.WaitLock, metrics.WaitLatch, metrics.WaitPageLatch, metrics.WaitPageIOLatch,
	}
	res := Table3Result{SmallSF: smallSF, LargeSF: largeSF}
	for _, c := range classes {
		res.Ratios = append(res.Ratios, core.Ratio{
			Label: c.String(),
			Num:   float64(rl.WaitNs[c]),
			Den:   float64(rs.WaitNs[c]),
		})
	}
	sumL := float64(rl.WaitNs[metrics.WaitLock] + rl.WaitNs[metrics.WaitLatch] + rl.WaitNs[metrics.WaitPageLatch])
	sumS := float64(rs.WaitNs[metrics.WaitLock] + rs.WaitNs[metrics.WaitLatch] + rs.WaitNs[metrics.WaitPageLatch])
	res.SumLockLatchPage = core.Ratio{Label: "SUM(LOCK,LATCH,PAGELATCH)", Num: sumL, Den: sumS}
	return res
}

// Fig3Result pairs throughput with average bandwidths for the two trends
// the paper separates: performance driven by cores (bandwidth rises) and
// by cache (DRAM bandwidth falls).
type Fig3Result struct {
	CoreDriven  []BandwidthPoint
	CacheDriven []BandwidthPoint
}

// BandwidthPoint is one (throughput, bandwidth) observation.
type BandwidthPoint struct {
	Knob         float64
	Throughput   float64
	SSDReadMBps  float64
	SSDWriteMBps float64
	DRAMMBps     float64
}

// Fig3 reproduces the average-bandwidth-versus-performance study for one
// workload and scale factor.
func Fig3(w Workload, sf int, opt Options) Fig3Result {
	coreSteps := []int{2, 4, 8, 16, 32}
	cacheSteps := []int{2, 6, 12, 20, 40}
	var pts []Point
	for _, n := range coreSteps {
		pts = append(pts, Point{Workload: w, SF: sf, Knobs: Knobs{Cores: n}})
	}
	for _, mb := range cacheSteps {
		pts = append(pts, Point{Workload: w, SF: sf, Knobs: Knobs{LLCMB: mb}})
	}
	rs := RunPoints(pts, opt)
	var out Fig3Result
	for i, n := range coreSteps {
		out.CoreDriven = append(out.CoreDriven, bandwidthPoint(float64(n), rs[i]))
	}
	for i, mb := range cacheSteps {
		out.CacheDriven = append(out.CacheDriven, bandwidthPoint(float64(mb), rs[len(coreSteps)+i]))
	}
	return out
}

func bandwidthPoint(knob float64, r Result) BandwidthPoint {
	return BandwidthPoint{
		Knob: knob, Throughput: r.Throughput,
		SSDReadMBps: r.SSDReadMBps, SSDWriteMBps: r.SSDWriteMBps, DRAMMBps: r.DRAMMBps,
	}
}

// Fig4Result holds bandwidth distributions at full allocations.
type Fig4Result struct {
	Workload Workload
	SF       int
	SSDRead  metrics.Distribution
	SSDWrite metrics.Distribution
	DRAM     metrics.Distribution
}

// Fig4 reproduces the bandwidth CDFs with full core and LLC allocations.
func Fig4(w Workload, sf int, opt Options) Fig4Result {
	r := runPoint(w, sf, opt, Knobs{})
	return Fig4Result{
		Workload: w, SF: sf,
		SSDRead:  metrics.NewDistribution(r.ReadBWSeries),
		SSDWrite: metrics.NewDistribution(r.WriteBWSeries),
		DRAM:     metrics.NewDistribution(r.DRAMBWSeries),
	}
}

// Fig5Steps is the read-bandwidth-limit sweep in MB/s.
var Fig5Steps = []float64{100, 200, 400, 600, 800, 1000, 1500, 2500}

// Fig5 reproduces the TPC-H SF 300 QPS response to SSD read-bandwidth
// limits, returning the measured curve (its LinearReference gives the
// dashed line, and AllocationForTarget the provisioning comparison).
func Fig5(opt Options, steps []float64) core.Curve {
	if steps == nil {
		steps = Fig5Steps
	}
	rs := Sweep(opt.Parallel, len(steps), func(i int) Result {
		return RunTPCH(300, opt, Knobs{ReadLimitMBps: steps[i]})
	}, opt.Progress)
	c := core.Curve{Name: "tpch-sf300-readbw"}
	for i, mbps := range steps {
		c.Add(mbps, rs[i].Throughput)
	}
	return c
}

// Fig5Write reproduces the ASDB SF 2000 write-bandwidth-limit result
// (paper: -6% at 100 MB/s, -44% at 50 MB/s).
func Fig5Write(opt Options) core.Curve {
	steps := []float64{50, 100, 0}
	rs := Sweep(opt.Parallel, len(steps), func(i int) Result {
		return RunASDB(2000, opt, Knobs{WriteLimitMBps: steps[i]})
	}, opt.Progress)
	c := core.Curve{Name: "asdb-sf2000-writebw"}
	for i, mbps := range steps {
		x := mbps
		if x == 0 {
			x = 1200 // device limit
		}
		c.Add(x, rs[i].Throughput)
	}
	return c
}

// DOPSteps is the MAXDOP sweep of Figure 6.
var DOPSteps = []int{1, 2, 4, 8, 16, 32}

// Fig6Result holds per-query elapsed times by MAXDOP for one SF.
type Fig6Result struct {
	SF      int
	Elapsed map[int]map[int]sim.Duration // query -> dop -> elapsed
}

// Speedup returns the Figure 6 metric: time(maxdop=32)/time(dop) —
// i.e., speedup of the baseline relative to the limited setting is
// inverted so bars >1 mean dop beats 32... The paper plots relative
// speedup with MAXDOP=32 as baseline: speedup(dop) = t(dop=32)/t(dop).
func (f Fig6Result) Speedup(query, dop int) float64 {
	base := f.Elapsed[query][32]
	t := f.Elapsed[query][dop]
	if t == 0 {
		return 0
	}
	return float64(base) / float64(t)
}

// Fig6 reproduces the per-query MAXDOP sensitivity: a single stream, the
// number of cores limited to MAXDOP, one measurement per (query, dop).
func Fig6(sf int, opt Options, dops []int) Fig6Result {
	if dops == nil {
		dops = DOPSteps
	}
	// Each DOP setting is one independent point: it builds its own
	// dataset and server, so points fan out across workers.
	perDop := Sweep(opt.Parallel, len(dops), func(di int) map[int]sim.Duration {
		dop := dops[di]
		elapsed := map[int]sim.Duration{}
		d := tpch.Build(tpchConfig(sf, opt))
		srv := warmServer(d.DB, opt, Knobs{Cores: dop, MaxDOP: dop})
		srv.Start()
		g := sim.NewRNG(opt.Seed + int64(dop))
		for _, qi := range g.Perm(tpch.NumQueries) {
			q := qi + 1
			elapsed[q] = tpch.QueryTiming(srv, d, q, dop, 0, g)
		}
		srv.Stop()
		srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
		return elapsed
	}, opt.Progress)
	out := Fig6Result{SF: sf, Elapsed: map[int]map[int]sim.Duration{}}
	for q := 1; q <= tpch.NumQueries; q++ {
		out.Elapsed[q] = map[int]sim.Duration{}
	}
	for di, dop := range dops {
		for q, t := range perDop[di] {
			out.Elapsed[q][dop] = t
		}
	}
	return out
}

// Fig7Result carries the rendered Q20 plans.
type Fig7Result struct {
	SF           int
	SerialPlan   string
	ParallelPlan string
	SerialShape  string
	ParShape     string
}

// Fig7 reproduces the Q20 plan-shape comparison: the same query explained
// at MAXDOP 1 and MAXDOP 32.
func Fig7(sf int, opt Options) Fig7Result {
	d := tpch.Build(tpchConfig(sf, opt))
	srv := newServer(opt, Knobs{})
	srv.AttachDB(d.DB)
	g := sim.NewRNG(opt.Seed)
	q := d.Query(20, g)
	serial, _ := srv.ExplainQuery(q, 1)
	par, _ := srv.ExplainQuery(q, 32)
	srv.Stop()
	return Fig7Result{
		SF:           sf,
		SerialPlan:   serial.Render(),
		ParallelPlan: par.Render(),
		SerialShape:  serial.Shape(),
		ParShape:     par.Shape(),
	}
}

// GrantSteps are Figure 8's query-memory-grant settings (fractions).
var GrantSteps = []float64{0.25, 0.15, 0.05, 0.02}

// Fig8Result holds per-query elapsed times by grant fraction.
type Fig8Result struct {
	SF      int
	Elapsed map[int]map[float64]sim.Duration // query -> grantPct -> time
}

// Speedup returns t(grant=0.25)/t(grant) per the paper's presentation
// (values < 1 mean the smaller grant slowed the query down).
func (f Fig8Result) Speedup(query int, grant float64) float64 {
	base := f.Elapsed[query][0.25]
	t := f.Elapsed[query][grant]
	if t == 0 {
		return 0
	}
	return float64(base) / float64(t)
}

// Fig8 reproduces the query-memory-grant sensitivity on TPC-H SF 100.
func Fig8(opt Options, grants []float64) Fig8Result {
	if grants == nil {
		grants = GrantSteps
	}
	perGrant := Sweep(opt.Parallel, len(grants), func(gi int) map[int]sim.Duration {
		grant := grants[gi]
		elapsed := map[int]sim.Duration{}
		d := tpch.Build(tpchConfig(100, opt))
		srv := warmServer(d.DB, opt, Knobs{GrantPct: grant})
		srv.Start()
		g := sim.NewRNG(opt.Seed)
		for _, qi := range g.Perm(tpch.NumQueries) {
			q := qi + 1
			elapsed[q] = tpch.QueryTiming(srv, d, q, 0, grant, g)
		}
		srv.Stop()
		srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
		return elapsed
	}, opt.Progress)
	out := Fig8Result{SF: 100, Elapsed: map[int]map[float64]sim.Duration{}}
	for q := 1; q <= tpch.NumQueries; q++ {
		out.Elapsed[q] = map[float64]sim.Duration{}
	}
	for gi, grant := range grants {
		for q, t := range perGrant[gi] {
			out.Elapsed[q][grant] = t
		}
	}
	return out
}

// Table2 regenerates the database-size table from the actual generated
// schemas and (for columnstores) measured compression ratios.
func Table2(opt Options) core.Table {
	t := core.Table{Headers: []string{"Database", "Scale Factor", "Data (GB)", "Index (GB)", "Fits 64GB"}}
	add := func(name string, sf int, db *engine.Database) {
		data := float64(db.DataBytes()) / (1 << 30)
		index := float64(db.IndexBytes()) / (1 << 30)
		fits := "yes"
		if data+index > 64 {
			fits = "NO"
		}
		t.AddRow(name, fmt.Sprint(sf), core.F(data), core.F(index), fits)
	}
	for _, row := range workloads {
		for _, sf := range row.sfs {
			add(row.title, sf, row.build(sf, opt).db)
		}
	}
	return t
}
