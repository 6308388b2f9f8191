package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/iodev"
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
var CoreSteps = []float64{1, 2, 4, 8, 12, 16, 32}

// LLCSteps is the paper's CAT sweep in MB (2 MB granularity; a subset of
// the 20 steps keeps sweeps affordable — pass your own for finer grids).
var LLCSteps = []float64{2, 4, 6, 8, 10, 12, 16, 20, 28, 40}

// Axis is one resource the paper allocates while pinning the rest: the
// knob's name in emitted records and how a step value lands in Knobs.
type Axis struct {
	Knob string
	Set  func(k *Knobs, v float64)
}

// The four swept resources: cpuset cores and CAT megabytes (Figures 2 and
// 3), blkio read and write limits in MB/s (Figure 5). AxisWriteBW's top
// step, the device's own write bandwidth, leaves blkio unlimited.
var (
	AxisCores   = Axis{"cores", func(k *Knobs, v float64) { k.Cores = int(v) }}
	AxisLLC     = Axis{"llc_mb", func(k *Knobs, v float64) { k.LLCMB = int(v) }}
	AxisReadBW  = Axis{"read_limit_mbps", func(k *Knobs, v float64) { k.ReadLimitMBps = v }}
	AxisWriteBW = Axis{"write_limit_mbps", func(k *Knobs, v float64) {
		if v < iodev.PaperSSD().WriteMBps {
			k.WriteLimitMBps = v
		}
	}}
)

// Metric reads one plotted quantity off a point's Result.
type Metric func(Result) float64

// Throughput is queries/s (DSS) or transactions/s (OLTP).
func Throughput(r Result) float64 { return r.Throughput }

// MPKI is LLC misses per thousand instructions.
func MPKI(r Result) float64 { return r.MPKI }

// Cell is one swept database: a workload at a scale factor.
type Cell struct {
	Workload Workload
	SF       int
}

// PaperCells returns w at each of the paper's scale factors.
func PaperCells(w Workload) []Cell {
	var cells []Cell
	for _, sf := range PaperSFs(w) {
		cells = append(cells, Cell{w, sf})
	}
	return cells
}

// Grid is one sweep's measurements: Results[c][s] is Cells[c] with Axis
// set to Steps[s] and every other resource at its full allocation.
type Grid struct {
	Axis    Axis
	Steps   []float64
	Cells   []Cell
	Results [][]Result
}

// SweepAxis is the paper's method — vary one resource, pin the rest —
// as one RunPoints call over every (cell, step).
func SweepAxis(axis Axis, steps []float64, cells []Cell, opt Options) Grid {
	pts := make([]Point, 0, len(cells)*len(steps))
	for _, c := range cells {
		for _, v := range steps {
			p := Point{Workload: c.Workload, SF: c.SF}
			axis.Set(&p.Knobs, v)
			pts = append(pts, p)
		}
	}
	rs := RunPoints(pts, opt)
	g := Grid{Axis: axis, Steps: steps, Cells: cells}
	for c := range cells {
		g.Results = append(g.Results, rs[c*len(steps):(c+1)*len(steps)])
	}
	return g
}

// Curve is metric m of cell c along the axis, named "<w>-sf<SF><suffix>".
func (g Grid) Curve(c int, m Metric, suffix string) core.Curve {
	cv := core.Curve{Name: fmt.Sprintf("%s-sf%d%s", g.Cells[c].Workload, g.Cells[c].SF, suffix)}
	for s, x := range g.Steps {
		cv.Add(x, m(g.Results[c][s]))
	}
	return cv
}

// Table4 derives the sufficient-LLC-capacity table from AxisLLC grids.
func Table4(grids []Grid) core.Table {
	t := core.Table{Headers: []string{"Workload", "SF", "Perf>=90%", "Perf>=95%"}}
	for _, g := range grids {
		for c, cell := range g.Cells {
			perf := g.Curve(c, Throughput, "")
			x90, _ := perf.SufficientCapacity(0.90)
			x95, _ := perf.SufficientCapacity(0.95)
			t.AddRow(string(cell.Workload), fmt.Sprint(cell.SF),
				fmt.Sprintf("%.0f MB", x90), fmt.Sprintf("%.0f MB", x95))
		}
	}
	return t
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
	waits := RunPoints([]Point{{Workload: WTpce, SF: smallSF}, {Workload: WTpce, SF: largeSF}}, opt)
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

// DOPSteps is the MAXDOP sweep of Figure 6.
var DOPSteps = []int{1, 2, 4, 8, 16, 32}

// GrantSteps are Figure 8's query-memory-grant settings (fractions); the
// first is the default grant the others are compared against.
var GrantSteps = []float64{0.25, 0.15, 0.05, 0.02}

// QueryTimings is the single-stream method of Figures 6 and 8: under each
// knob setting, one fresh TPC-H server runs all 22 queries once each, in
// an order drawn from that setting's seed, at the setting's MAXDOP and
// grant. It returns query -> elapsed per setting. Each setting builds its
// own dataset and server, so settings fan out across workers.
func QueryTimings(sf int, opt Options, settings []Knobs, seeds []int64) []map[int]sim.Duration {
	return Sweep(opt.Parallel, len(settings), func(i int) map[int]sim.Duration {
		k := settings[i]
		elapsed := map[int]sim.Duration{}
		booted := setupTimer()
		d := tpch.Build(tpchConfig(sf, opt))
		srv := warmServer(d.DB, opt, k)
		booted()
		srv.Start()
		g := sim.NewRNG(seeds[i])
		for _, qi := range g.Perm(tpch.NumQueries) {
			q := qi + 1
			elapsed[q] = tpch.QueryTiming(srv, d, q, k.MaxDOP, k.GrantPct, g)
		}
		settle(srv, nil)
		return elapsed
	}, opt.Progress)
}

// speedup is base/t, the presentation of Figures 6 and 8 (0 when the
// setting was not measured).
func speedup(base, t sim.Duration) float64 {
	if t == 0 {
		return 0
	}
	return float64(base) / float64(t)
}

// Fig6Result holds per-query elapsed times by MAXDOP for one SF.
type Fig6Result struct {
	SF      int
	Elapsed map[int]map[int]sim.Duration // query -> dop -> elapsed
}

// Speedup is the Figure 6 metric, t(dop=32)/t(dop): MAXDOP 32 is the
// baseline, so a value below 1 means the limited setting is slower.
func (f Fig6Result) Speedup(query, dop int) float64 {
	return speedup(f.Elapsed[query][32], f.Elapsed[query][dop])
}

// Fig6 reproduces the per-query MAXDOP sensitivity: a single stream, the
// number of cores limited to MAXDOP, one measurement per (query, dop).
func Fig6(sf int, opt Options, dops []int) Fig6Result {
	settings, seeds := make([]Knobs, len(dops)), make([]int64, len(dops))
	for i, dop := range dops {
		settings[i], seeds[i] = Knobs{Cores: dop, MaxDOP: dop}, opt.Seed+int64(dop)
	}
	out := Fig6Result{SF: sf, Elapsed: map[int]map[int]sim.Duration{}}
	for q := 1; q <= tpch.NumQueries; q++ {
		out.Elapsed[q] = map[int]sim.Duration{}
	}
	for i, elapsed := range QueryTimings(sf, opt, settings, seeds) {
		for q, t := range elapsed {
			out.Elapsed[q][dops[i]] = t
		}
	}
	return out
}

// Fig8 reproduces the query-memory-grant sensitivity on TPC-H SF 100:
// query -> elapsed per grant fraction, in grants order.
func Fig8(opt Options, grants []float64) []map[int]sim.Duration {
	settings, seeds := make([]Knobs, len(grants)), make([]int64, len(grants))
	for i, grant := range grants {
		settings[i], seeds[i] = Knobs{GrantPct: grant}, opt.Seed
	}
	return QueryTimings(100, opt, settings, seeds)
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
	booted := setupTimer()
	d := tpch.Build(tpchConfig(sf, opt))
	srv := newServer(opt, Knobs{})
	srv.AttachDB(d.DB)
	booted()
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
