package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload/tpch"
)

// TraceResult is one traced query execution: the span tree plus the
// statement's attributed counters, ready to render or export.
type TraceResult struct {
	SF      int
	Query   int
	Elapsed sim.Duration
	Trace   *trace.Trace
	Stmt    *metrics.Counters
	Err     string // non-empty when the statement failed
}

// TraceTPCH runs one TPC-H query with tracing on and returns its
// EXPLAIN-ANALYZE material (the `dbsense trace` experiment).
func TraceTPCH(sf, qn int, opt Options) TraceResult {
	booted := setupTimer()
	d := tpch.Build(tpchConfig(sf, opt))
	srv := warmServer(d.DB, opt, Knobs{Trace: true})
	booted()
	srv.Start()
	g := sim.NewRNG(opt.Seed)
	var res engine.QueryResult
	srv.Sim.Spawn("trace-query", func(p *sim.Proc) {
		sess := srv.Open(p)
		defer sess.Close()
		res = sess.Query(d.Query(qn, g), engine.QueryOptions{})
		p.Sim().Halt()
	})
	srv.Sim.Run(sim.Forever)
	settle(srv, nil)
	out := TraceResult{SF: sf, Query: qn, Elapsed: res.Elapsed, Trace: res.Trace, Stmt: res.Stmt}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	return out
}

// Render returns the trace's actual-plan report.
func (t TraceResult) Render() string {
	if t.Trace == nil {
		return fmt.Sprintf("-- Q%d @ SF %d: no trace captured --\n", t.Query, t.SF)
	}
	s := t.Trace.Render()
	if t.Err != "" {
		s += fmt.Sprintf("-- statement failed: %s --\n", t.Err)
	}
	return s
}

// QueryStatsTable renders a query-stats snapshot as the paper-style
// aligned table (the dm_exec_query_stats view).
func QueryStatsTable(rows []metrics.QueryStatRow) core.Table {
	t := core.Table{Headers: []string{
		"query", "execs", "err", "retry", "degr", "rows", "spills",
		"mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms", "top wait",
	}}
	for _, r := range rows {
		t.AddRow(
			r.Query,
			fmt.Sprint(r.Executions),
			fmt.Sprint(r.Errors),
			fmt.Sprint(r.Retries),
			fmt.Sprint(r.Degraded),
			fmt.Sprint(r.Rows),
			fmt.Sprint(r.Spills),
			core.F(r.Hist.Mean()/1e6),
			core.F(r.Hist.Quantile(0.50)/1e6),
			core.F(r.Hist.Quantile(0.95)/1e6),
			core.F(r.Hist.Quantile(0.99)/1e6),
			core.F(float64(r.MaxNs)/1e6),
			topWait(r.WaitNs),
		)
	}
	return t
}

// topWait names the wait class with the most time, or "-" when the row
// waited on nothing.
func topWait(waits [metrics.NumWaitClasses]int64) string {
	best, bestNs := metrics.WaitClass(0), int64(0)
	for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
		if waits[c] > bestNs {
			best, bestNs = c, waits[c]
		}
	}
	if bestNs == 0 {
		return "-"
	}
	return best.String()
}
