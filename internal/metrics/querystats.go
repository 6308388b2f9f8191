package metrics

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// HistBuckets is the number of log2 latency buckets: bucket i counts
// observations in [2^(i-1), 2^i) nanoseconds (bucket 0 is [0, 1)).
const HistBuckets = telemetry.HistBuckets

// Histogram is the shared log2-bucketed latency histogram; the canonical
// implementation lives in internal/telemetry so query statistics and the
// metric registry use one set of bucket/quantile math.
type Histogram = telemetry.Histogram

// QueryStatRow is one query template's cumulative execution statistics —
// the dm_exec_query_stats analogue, extended with the wait attribution
// and robustness counters this engine tracks.
type QueryStatRow struct {
	Query string // template label, e.g. "tpch.Q14" or "tpce.TradeOrder"

	Executions int64 // completed executions (each retry attempt counts)
	Errors     int64 // executions that failed (IO, deadline, canceled, abort)
	Kills      int64 // executions killed at the statement deadline
	Retries    int64 // driver-level retry attempts of this template
	Degraded   int64 // executions re-planned at lower DOP/grant

	Rows     int64 // rows returned, cumulative
	Spills   int64 // workspace spills, cumulative
	TotalNs  int64 // simulated elapsed time, cumulative
	MaxNs    int64 // slowest execution
	WaitNs   [NumWaitClasses]int64
	Hist     Histogram
	Counters Counters // full attributed counter deltas, cumulative
}

// Exec describes one finished execution for QueryStats.Record.
type Exec struct {
	Elapsed  sim.Duration
	Rows     int64
	Failed   bool
	Killed   bool
	Degraded bool
	Stmt     *Counters // statement-attributed counters (nil = none captured)
}

// QueryStats is the cumulative per-query-template statistics store. One
// store belongs to one server (and thus one simulation), so access is
// serialized by the simulation kernel and needs no locking.
type QueryStats struct {
	rows map[string]*QueryStatRow
}

// NewQueryStats creates an empty store.
func NewQueryStats() *QueryStats {
	return &QueryStats{rows: make(map[string]*QueryStatRow)}
}

func (qs *QueryStats) row(query string) *QueryStatRow {
	r := qs.rows[query]
	if r == nil {
		r = &QueryStatRow{Query: query}
		qs.rows[query] = r
	}
	return r
}

// Record folds one execution into the template's row.
func (qs *QueryStats) Record(query string, e Exec) {
	if qs == nil || query == "" {
		return
	}
	r := qs.row(query)
	r.Executions++
	if e.Failed {
		r.Errors++
	}
	if e.Killed {
		r.Kills++
	}
	if e.Degraded {
		r.Degraded++
	}
	r.Rows += e.Rows
	r.TotalNs += int64(e.Elapsed)
	if int64(e.Elapsed) > r.MaxNs {
		r.MaxNs = int64(e.Elapsed)
	}
	r.Hist.Observe(e.Elapsed)
	if e.Stmt != nil {
		r.Spills += e.Stmt.Spills
		for i, ns := range e.Stmt.WaitNs {
			r.WaitNs[i] += ns
		}
		r.Counters.Add(e.Stmt)
	}
}

// AddRetry counts a driver-level retry attempt of the template.
func (qs *QueryStats) AddRetry(query string) {
	if qs == nil || query == "" {
		return
	}
	qs.row(query).Retries++
}

// Snapshot returns a deep copy of every row, sorted by query label, so
// reports and exporters iterate deterministically.
func (qs *QueryStats) Snapshot() []QueryStatRow {
	if qs == nil {
		return nil
	}
	out := make([]QueryStatRow, 0, len(qs.rows))
	for _, r := range qs.rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}
