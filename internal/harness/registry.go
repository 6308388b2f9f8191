package harness

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload/tpch"
)

// Env is what an experiment row runs against: the measurement options,
// where rendered text and structured records go, and the values of the
// per-experiment dbsense flags.
type Env struct {
	Opt      Options
	Quick    bool     // reduced sweeps and scale factors for a fast pass
	Workload Workload // -workload restriction ("" = every workload)

	Out  io.Writer // rendered tables
	Emit *Emitter  // structured records (nil discards)

	TraceQuery int     // -trace: TPC-H query number for the trace experiment
	Rate       float64 // -rate: serve/chaos connection arrivals per second
	Storm      bool    // -storm: serve drives the 6x arrival burst
	Schedule   string  // -schedule: restrict chaos to one named fault schedule
}

// Experiment is one row of the experiment table.
type Experiment struct {
	Name string
	Desc string // one-liner for `dbsense list`
	// InAll is whether `dbsense run all` includes the row.
	InAll bool
	// UsesWorkload is whether the row honours Env.Workload; setting
	// -workload on a row that ignores it is a usage error.
	UsesWorkload bool
	// ownBanner marks the single-cell serve row, which prints its own
	// banner (it carries the cell's rate and storm setting) and no
	// trailing blank line.
	ownBanner bool
	Run       func(*Env) error
}

// Execute runs the row framed the way dbsense prints it: the
// "== name (...) ==" banner, the row's output, a blank line.
func (x Experiment) Execute(env *Env) error {
	if x.ownBanner {
		return x.Run(env)
	}
	env.printf("== %s (density=%d, measure=%.0fs) ==\n", x.Name, env.Opt.Density, env.Opt.Measure.Seconds())
	if err := x.Run(env); err != nil {
		return err
	}
	env.write("\n")
	return nil
}

// Experiments is the experiment table, in `dbsense list` and `run all`
// order. Adding an experiment is adding a row.
var Experiments = []Experiment{
	{Name: "table2", Desc: "database sizes: data and index GB per workload and scale factor", InAll: true, Run: runTable2},
	{Name: "fig2cores", Desc: "throughput vs logical cores, per workload and SF", InAll: true, UsesWorkload: true, Run: runFig2Cores},
	{Name: "fig2llc", Desc: "throughput and MPKI vs LLC size (also derives Table 4)", InAll: true, UsesWorkload: true, Run: runFig2LLC},
	{Name: "table3", Desc: "wait-type ratios across scale factors", InAll: true, Run: runTable3},
	// Not in "all": fig2llc prints Table 4 from the same sweep.
	{Name: "table4", Desc: "cache sensitivity classes (fig2llc's sweep, table only)", UsesWorkload: true, Run: runTable4},
	{Name: "fig3", Desc: "resource-demand trends along core and cache sweeps", InAll: true, Run: runFig3},
	{Name: "fig4", Desc: "bandwidth-demand distributions (SSD read/write, DRAM)", InAll: true, UsesWorkload: true, Run: runFig4},
	{Name: "fig5", Desc: "TPC-H QPS vs SSD read limit, against a linear model", InAll: true, Run: runFig5},
	{Name: "fig5write", Desc: "ASDB TPS vs SSD write limit", InAll: true, Run: runFig5Write},
	{Name: "fig6", Desc: "TPC-H per-query speedup vs MAXDOP", InAll: true, Run: runFig6},
	{Name: "fig7", Desc: "Q20 plan shapes at MAXDOP 1 vs 32", InAll: true, Run: runFig7},
	{Name: "fig8", Desc: "TPC-H speedup vs memory-grant fraction", InAll: true, Run: runFig8},
	{Name: "trace", Desc: "execution trace tree for one TPC-H query (-trace N)", InAll: true, Run: runTrace},
	{Name: "qstats", Desc: "per-statement execution statistics, per workload", InAll: true, UsesWorkload: true, Run: runQStats},
	{Name: "serving", Desc: "open-loop network serving sweep: latency/goodput/shed vs offered load", Run: runServing},
	{Name: "replication", Desc: "WAL log-shipping throughput and commit-ack latency", Run: runReplication},
	{Name: "resilience", Desc: "throughput retention under fault injection", UsesWorkload: true, Run: runResilience},
	{Name: "recovery", Desc: "ARIES restart MTTR and crash matrix", Run: runRecoveryExp},
	{Name: "failover", Desc: "replica promotion RTO and PITR", Run: runFailover},
	{Name: "chaos", Desc: "acked-commit safety under net faults, crashes, and failover (-schedule, -rate)", Run: runChaos},
	{Name: "serve", Desc: "one serving cell at -rate conn/s, optionally with -storm", ownBanner: true, Run: runServeCell},
}

func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

func (e *Env) write(s string) {
	io.WriteString(e.Out, s)
}

// workloads is the set a UsesWorkload row sweeps: the -workload
// restriction, or every workload in table order.
func (e *Env) workloads() []Workload {
	if e.Workload != "" {
		return []Workload{e.Workload}
	}
	ws := make([]Workload, len(workloads))
	for i, row := range workloads {
		ws[i] = row.name
	}
	return ws
}

// quickOr picks a row's quick-mode parameter under -quick, else the
// full one.
func quickOr[T any](e *Env, quick, full T) T {
	if e.Quick {
		return quick
	}
	return full
}

// asdbSF is the ASDB scale factor of the serving, replication,
// recovery, failover and chaos cells.
func (e *Env) asdbSF() int { return quickOr(e, 1000, 2000) }

func runTable2(e *Env) error {
	tb := Table2(e.Opt)
	e.write(tb.Render())
	EmitTable(e.Emit, "table2", "table2", tb)
	return nil
}

// showFamily renders one Figure 2 panel — metric m of every cell along the
// grid's axis — and emits each cell's curve.
func showFamily(e *Env, experiment, title, label string, g Grid, m Metric, metric, unit, suffix string) {
	e.write(RenderFamily(title, g, m, label))
	for c, cell := range g.Cells {
		EmitCurve(e.Emit, experiment, string(cell.Workload), cell.SF, metric, g.Axis.Knob, unit, g.Curve(c, m, suffix))
	}
}

func runFig2Cores(e *Env) error {
	steps := quickOr(e, []float64{2, 8, 16, 32}, CoreSteps)
	for _, w := range e.workloads() {
		g := SweepAxis(AxisCores, steps, PaperCells(w), e.Opt)
		showFamily(e, "fig2cores", fmt.Sprintf("Fig2 cores: %s (throughput vs logical cores)", w), "cores", g, Throughput, "throughput", "per_sec", "")
	}
	return nil
}

// llcSweep runs the LLC sweep for every selected workload, handing each
// workload's grid to show as it completes, and returns Table 4.
func llcSweep(e *Env, show func(Workload, Grid)) core.Table {
	steps := quickOr(e, []float64{2, 8, 20, 40}, LLCSteps)
	var all []Grid
	for _, w := range e.workloads() {
		g := SweepAxis(AxisLLC, steps, PaperCells(w), e.Opt)
		all = append(all, g)
		show(w, g)
	}
	return Table4(all)
}

func runFig2LLC(e *Env) error {
	t4 := llcSweep(e, func(w Workload, g Grid) {
		showFamily(e, "fig2llc", fmt.Sprintf("Fig2 LLC: %s (throughput vs MB)", w), "MB", g, Throughput, "throughput", "per_sec", "")
		showFamily(e, "fig2llc", fmt.Sprintf("Fig2 MPKI: %s (MPKI vs MB)", w), "MB", g, MPKI, "mpki", "mpki", "-mpki")
	})
	e.printf("-- Table 4 (derived from the same sweep) --\n%s", t4.Render())
	EmitTable(e.Emit, "fig2llc", "table4", t4)
	return nil
}

func runTable4(e *Env) error {
	tb := llcSweep(e, func(Workload, Grid) {})
	e.write(tb.Render())
	EmitTable(e.Emit, "table4", "table4", tb)
	return nil
}

func runTable3(e *Env) error {
	small, large := quickOr(e, 2000, 5000), quickOr(e, 6000, 15000)
	res := Table3(small, large, e.Opt)
	t := core.Table{Headers: []string{"Wait Type", fmt.Sprintf("SF%d/SF%d ratio", large, small)}}
	for _, r := range res.Ratios {
		t.AddRow(r.Label, core.F(r.Value()))
	}
	t.AddRow(res.SumLockLatchPage.Label, core.F(res.SumLockLatchPage.Value()))
	e.write(t.Render())
	EmitTable(e.Emit, "table3", "table3", t)
	return nil
}

// runFig3 pairs throughput with average bandwidths along the two trends
// the paper separates: performance driven by cores (bandwidth rises) and
// by cache (DRAM bandwidth falls).
func runFig3(e *Env) error {
	for _, cell := range []Cell{{WTpch, 100}, {WAsdb, 2000}} {
		t := core.Table{Headers: []string{"trend", "knob", "throughput", "SSD-R MB/s", "SSD-W MB/s", "DRAM MB/s"}}
		add := func(trend string, g Grid) {
			for s, r := range g.Results[0] {
				t.AddRow(trend, core.F(g.Steps[s]), core.F(r.Throughput), core.F(r.SSDReadMBps), core.F(r.SSDWriteMBps), core.F(r.DRAMMBps))
			}
		}
		add("cores", SweepAxis(AxisCores, []float64{2, 4, 8, 16, 32}, []Cell{cell}, e.Opt))
		add("LLC-MB", SweepAxis(AxisLLC, []float64{2, 6, 12, 20, 40}, []Cell{cell}, e.Opt))
		e.printf("-- %s SF %d --\n%s", cell.Workload, cell.SF, t.Render())
		EmitTable(e.Emit, "fig3", fmt.Sprintf("%s-sf%d", cell.Workload, cell.SF), t)
	}
	return nil
}

// workloadPoints is one full-allocation point per selected workload, at
// the scale factor pick takes from the paper's list.
func (e *Env) workloadPoints(pick func(sfs []int) int) []Point {
	var pts []Point
	for _, w := range e.workloads() {
		pts = append(pts, Point{Workload: w, SF: pick(PaperSFs(w))})
	}
	return pts
}

// runFig4 reproduces the bandwidth CDFs with full core and LLC allocations.
func runFig4(e *Env) error {
	t := core.Table{Headers: []string{"workload", "SF", "metric", "p10", "p50", "p90", "p99", "mean"}}
	pts := e.workloadPoints(slices.Max[[]int])
	for i, r := range RunPoints(pts, e.Opt) {
		w, sf := string(pts[i].Workload), pts[i].SF
		for _, bw := range []struct {
			label, metric string
			series        []float64
		}{
			{"SSD-read", "ssd_read_mbps", r.ReadBWSeries},
			{"SSD-write", "ssd_write_mbps", r.WriteBWSeries},
			{"DRAM", "dram_mbps", r.DRAMBWSeries},
		} {
			d := metrics.NewDistribution(bw.series)
			t.AddRow(w, fmt.Sprint(sf), bw.label,
				core.F(d.Percentile(10)), core.F(d.Percentile(50)),
				core.F(d.Percentile(90)), core.F(d.Percentile(99)), core.F(d.Mean()))
			EmitDistribution(e.Emit, "fig4", w, sf, bw.metric, "MB/s", d)
		}
	}
	e.write(t.Render())
	return nil
}

// runFig5 reproduces the TPC-H SF 300 QPS response to SSD read-bandwidth
// limits against the linear model a provisioner would assume.
func runFig5(e *Env) error {
	steps := quickOr(e, []float64{100, 400, 800, 2500}, []float64{100, 200, 400, 600, 800, 1000, 1500, 2500})
	g := SweepAxis(AxisReadBW, steps, []Cell{{WTpch, 300}}, e.Opt)
	c := g.Curve(0, Throughput, "-readbw")
	lin := c.LinearReference()
	t := core.Table{Headers: []string{"read limit MB/s", "QPS", "linear-model QPS"}}
	for i, p := range c.Points {
		t.AddRow(core.F(p.X), core.F(p.Y), core.F(lin.Points[i].Y))
	}
	e.write(t.Render())
	EmitCurve(e.Emit, "fig5", "tpch", 300, "qps", g.Axis.Knob, "qps", c)
	EmitCurve(e.Emit, "fig5", "tpch", 300, "qps_linear_model", g.Axis.Knob, "qps", lin)
	target := c.Last().Y * 0.8
	if actual, linear, ok := c.AllocationForTarget(target); ok {
		e.printf("to reach %.3f QPS: actual needs %.0f MB/s; a linear model would provision %.0f MB/s (%.0f%% over)\n",
			target, actual, linear, 100*(linear/actual-1))
	}
	return nil
}

// runFig5Write reproduces the ASDB SF 2000 write-bandwidth-limit result
// (paper: -6% at 100 MB/s, -44% at 50 MB/s).
func runFig5Write(e *Env) error {
	g := SweepAxis(AxisWriteBW, []float64{50, 100, iodev.PaperSSD().WriteMBps}, []Cell{{WAsdb, 2000}}, e.Opt)
	c := g.Curve(0, Throughput, "-writebw")
	base := c.Last().Y
	t := core.Table{Headers: []string{"write limit MB/s", "TPS", "vs unlimited"}}
	for _, p := range c.Points {
		t.AddRow(core.F(p.X), core.F(p.Y), fmt.Sprintf("%+.0f%%", 100*(p.Y/base-1)))
	}
	e.write(t.Render())
	EmitCurve(e.Emit, "fig5write", "asdb", 2000, "tps", g.Axis.Knob, "tps", c)
	return nil
}

// queryRows is the per-query table of Figures 6 and 8: one row per TPC-H
// query, one cell per header after the first.
func queryRows(headers []string, cell func(q, col int) float64) core.Table {
	t := core.Table{Headers: headers}
	for q := 1; q <= tpch.NumQueries; q++ {
		row := []string{fmt.Sprintf("Q%d", q)}
		for col := range headers[1:] {
			row = append(row, core.F(cell(q, col)))
		}
		t.AddRow(row...)
	}
	return t
}

func runFig6(e *Env) error {
	headers := []string{"query"}
	for _, dop := range DOPSteps {
		headers = append(headers, fmt.Sprintf("dop%d", dop))
	}
	for _, sf := range PaperSFs(WTpch) {
		res := Fig6(sf, e.Opt, DOPSteps)
		t := queryRows(headers, func(q, col int) float64 { return res.Speedup(q, DOPSteps[col]) })
		e.printf("-- TPC-H SF %d: speedup relative to MAXDOP=32 --\n%s", sf, t.Render())
		EmitTable(e.Emit, "fig6", fmt.Sprintf("sf%d", sf), t)
	}
	return nil
}

func runFig7(e *Env) error {
	for _, sf := range []int{10, 300} {
		res := Fig7(sf, e.Opt)
		e.printf("-- Q20 @ SF %d --\nMAXDOP=1:\n%s\nMAXDOP=32:\n%s\n", sf, res.SerialPlan, res.ParallelPlan)
		EmitTable(e.Emit, "fig7", fmt.Sprintf("q20-sf%d", sf), core.Table{
			Headers: []string{"maxdop", "shape"},
			Rows:    [][]string{{"1", res.SerialShape}, {"32", res.ParShape}},
		})
	}
	return nil
}

func runFig8(e *Env) error {
	headers := []string{"query"}
	for _, grant := range GrantSteps[1:] {
		headers = append(headers, fmt.Sprintf("M=%.0f%%", 100*grant))
	}
	ts := Fig8(e.Opt, GrantSteps)
	t := queryRows(headers, func(q, col int) float64 { return speedup(ts[0][q], ts[col+1][q]) })
	e.printf("-- TPC-H SF 100: speedup vs default 25%% grant --\n%s", t.Render())
	EmitTable(e.Emit, "fig8", "sf100", t)
	return nil
}

func runTrace(e *Env) error {
	sf := quickOr(e, 10, 100)
	res := TraceTPCH(sf, e.TraceQuery, e.Opt)
	e.write(res.Render())
	EmitTrace(e.Emit, "trace", "tpch", sf, res.Trace)
	if res.Stmt != nil {
		EmitWaits(e.Emit, "trace", "tpch", sf, "query", float64(e.TraceQuery), res.Stmt.WaitNs)
	}
	return nil
}

func runQStats(e *Env) error {
	pts := e.workloadPoints(slices.Min[[]int])
	for i, r := range RunPoints(pts, e.Opt) {
		w, sf := string(pts[i].Workload), pts[i].SF
		t := QueryStatsTable(r.QueryStats)
		e.printf("-- query stats: %s SF %d --\n%s", w, sf, t.Render())
		EmitResult(e.Emit, "qstats", w, sf, "", 0, r)
	}
	return nil
}

func runServing(e *Env) error {
	res := Serving(e.asdbSF(), e.Opt, ServingRates)
	e.write(res.String())
	EmitServing(e.Emit, res)
	return nil
}

func runReplication(e *Env) error {
	res := Replication(e.asdbSF(), e.Opt, ReplModes, quickOr(e, []float64{200}, RecoveryBandwidths), quickOr(e, []int{1}, ReplReplicaCounts))
	e.write(res.String())
	EmitReplication(e.Emit, res)
	return res.Err()
}

// runResilience sweeps TPC-H and TPC-E by default, or a single
// -workload override at its smallest paper scale factor, along the
// fault-intensity axis.
func runResilience(e *Env) error {
	cells := []Cell{{WTpch, 100}, {WTpce, quickOr(e, 2000, 5000)}}
	if e.Workload != "" {
		cells = []Cell{{e.Workload, PaperSFs(e.Workload)[0]}}
	}
	g := SweepAxis(faultAxis(e.Opt.Seed), quickOr(e, []float64{0, 1, 4}, FaultSteps), cells, e.Opt)
	e.write(RenderResilience(g))
	EmitResilience(e.Emit, g)
	return nil
}

// runRecoveryExp runs both halves — the MTTR sweep and the crash matrix
// — and reports either's failed cells only after both have rendered and
// emitted.
func runRecoveryExp(e *Env) error {
	sf := e.asdbSF()
	res := Recovery(sf, e.Opt, quickOr(e, []sim.Duration{500 * sim.Millisecond, 2 * sim.Second}, RecoveryCkptIntervals), RecoveryBandwidths)
	e.write(res.String())
	EmitRecovery(e.Emit, res)
	m := CrashMatrix(sf, e.Opt, CrashMatrixPlans(e.Opt))
	e.write(m.String())
	EmitCrashMatrix(e.Emit, m)
	return errors.Join(res.Err(), m.Err())
}

func runFailover(e *Env) error {
	res := Failover(e.asdbSF(), e.Opt, ReplModes)
	e.write(res.String())
	EmitFailover(e.Emit, res)
	return res.Err()
}

func runChaos(e *Env) error {
	specs := ChaosSpecs()
	if e.Schedule != "" {
		specs = slices.DeleteFunc(specs, func(sp ChaosSpec) bool { return sp.Schedule != e.Schedule })
	}
	res := Chaos(e.asdbSF(), e.Opt, specs, e.Rate)
	e.write(res.String())
	EmitChaos(e.Emit, res)
	return res.Err()
}

// runServeCell boots the serving front end under open-loop traffic at one
// offered load and reports the cell — the single-run counterpart of the
// serving sweep.
func runServeCell(e *Env) error {
	sf := e.asdbSF()
	e.printf("== serve (density=%d, measure=%.0fs, rate=%g conn/s, storm=%v) ==\n",
		e.Opt.Density, e.Opt.Measure.Seconds(), e.Rate, e.Storm)
	pt := ServeOnce(sf, e.Opt, Knobs{}, e.Rate, e.Storm)
	e.printf("offered %.1f rps -> goodput %.1f rps\n", pt.OfferedRPS, pt.GoodputRPS)
	e.printf("latency p50 %.3f ms, p99 %.2f ms, p999 %.2f ms\n", pt.P50Ms, pt.P99Ms, pt.P999Ms)
	e.printf("shed %.1f%% (%d), degraded %d, refused %d, dropped %d, conns %d\n",
		100*pt.ShedRate, pt.Shed, pt.Degraded, pt.Refused, pt.Dropped, pt.Accepted)
	EmitServeOnce(e.Emit, sf, pt)
	return nil
}
