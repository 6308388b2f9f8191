package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SchemaVersion identifies the emitter record schema. Every record is
// stamped with it so mixed-version streams are detectable downstream
// (cmd/simstat refuses to aggregate across versions). Version 1 is the
// implicit pre-stamp schema; version 2 added the stamp itself plus the
// telemetry "series" record kind.
const SchemaVersion = 2

// Record is one exported observation. Every figure, table, time series,
// wait breakdown, query-stat row, and trace span flattens into this one
// schema, so downstream tooling parses a single shape regardless of the
// experiment. Unused fields are omitted. The field set is stable:
// additions append, nothing is renamed.
type Record struct {
	Record     string             `json:"record"`             // row type: point, curve_point, table_row, cdf_point, series_point, wait, query_stat, span
	Experiment string             `json:"experiment"`         // experiment id (fig2cores, table3, qstats, ...)
	Workload   string             `json:"workload,omitempty"` // tpch | tpce | asdb | htap
	SF         int                `json:"sf,omitempty"`       // scale factor
	Metric     string             `json:"metric,omitempty"`   // what Value measures (throughput, mpki, wait class, ...)
	Name       string             `json:"name,omitempty"`     // object label (curve name, query template, operator)
	Knob       string             `json:"knob,omitempty"`     // swept knob (cores, llc_mb, read_limit_mbps, ...)
	X          float64            `json:"x,omitempty"`        // knob setting / CDF value / series index
	Value      float64            `json:"value,omitempty"`    // measured value
	Unit       string             `json:"unit,omitempty"`     // Value's unit (qps, tps, MB/s, ms, ns, frac)
	Text       string             `json:"text,omitempty"`     // free-form cell payload (table rows)
	Fields     map[string]float64 `json:"fields,omitempty"`   // named sub-values (query-stat and span details)

	// SchemaVersion is stamped by Emit on every record (never set it at a
	// call site).
	SchemaVersion int `json:"schema_version"`
}

// Emitter writes Records as JSON Lines. Output is deterministic: fields
// in struct order, map keys sorted, and no record carries wall-clock
// state — the same experiment at the same seed emits byte-identical
// output.
type Emitter struct {
	w   *bufio.Writer
	err error
}

// NewEmitter creates an emitter writing JSONL to w through a buffer that
// Close flushes.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{w: bufio.NewWriter(w)}
}

// Emit writes one record. A nil emitter discards, so call sites need no
// guards. The first write error sticks and is returned by Close.
func (e *Emitter) Emit(r Record) {
	if e == nil || e.err != nil {
		return
	}
	r.SchemaVersion = SchemaVersion
	b, err := json.Marshal(r)
	if err != nil {
		e.err = err
		return
	}
	b = append(b, '\n')
	_, e.err = e.w.Write(b)
}

// Close flushes buffered output and returns the first error seen.
func (e *Emitter) Close() error {
	if e == nil {
		return nil
	}
	if e.err == nil {
		e.err = e.w.Flush()
	}
	return e.err
}

// EmitCurve exports a response curve as curve_point records.
func EmitCurve(e *Emitter, experiment, workload string, sf int, metric, knob, unit string, c core.Curve) {
	for _, p := range c.Points {
		e.Emit(Record{
			Record: "curve_point", Experiment: experiment, Workload: workload, SF: sf,
			Metric: metric, Name: c.Name, Knob: knob, X: p.X, Value: p.Y, Unit: unit,
		})
	}
}

// EmitTable exports a rendered table one table_row record per row, with
// cells packed into Text as "header=cell; ...".
func EmitTable(e *Emitter, experiment, name string, t core.Table) {
	if e == nil {
		return
	}
	for _, row := range t.Rows {
		parts := make([]string, 0, len(row))
		for i, cell := range row {
			h := ""
			if i < len(t.Headers) {
				h = t.Headers[i]
			}
			parts = append(parts, h+"="+cell)
		}
		e.Emit(Record{
			Record: "table_row", Experiment: experiment, Name: name,
			Text: strings.Join(parts, "; "),
		})
	}
}

// EmitDistribution exports a sample distribution: its CDF points plus a
// percentile summary record.
func EmitDistribution(e *Emitter, experiment, workload string, sf int, metric, unit string, d metrics.Distribution) {
	if e == nil {
		return
	}
	for _, pt := range d.CDF() {
		e.Emit(Record{
			Record: "cdf_point", Experiment: experiment, Workload: workload, SF: sf,
			Metric: metric, X: pt[0], Value: pt[1], Unit: unit,
		})
	}
	e.Emit(Record{
		Record: "point", Experiment: experiment, Workload: workload, SF: sf,
		Metric: metric + "_summary", Unit: unit,
		Fields: map[string]float64{
			"p10": d.Percentile(10), "p50": d.Percentile(50),
			"p90": d.Percentile(90), "p99": d.Percentile(99),
			"mean": d.Mean(), "n": float64(len(d.Sorted)),
		},
	})
}

// EmitResult exports one experiment point in full: the summary metrics,
// the per-interval bandwidth series, the wait-class breakdown, and the
// server's query-stats snapshot.
func EmitResult(e *Emitter, experiment, workload string, sf int, knob string, x float64, r Result) {
	if e == nil {
		return
	}
	e.Emit(Record{
		Record: "point", Experiment: experiment, Workload: workload, SF: sf,
		Knob: knob, X: x,
		Fields: map[string]float64{
			"throughput":     r.Throughput,
			"oltp_tps":       r.OLTPTps,
			"dss_qps":        r.DSSQps,
			"mpki":           r.MPKI,
			"ipc":            r.IPC,
			"ssd_read_mbps":  r.SSDReadMBps,
			"ssd_write_mbps": r.SSDWriteMBps,
			"dram_mbps":      r.DRAMMBps,
			"elapsed_secs":   r.ElapsedSecs,
		},
	})
	for _, s := range []struct {
		metric string
		vals   []float64
	}{
		{"ssd_read_mbps", r.ReadBWSeries},
		{"ssd_write_mbps", r.WriteBWSeries},
		{"dram_mbps", r.DRAMBWSeries},
	} {
		for i, v := range s.vals {
			e.Emit(Record{
				Record: "series_point", Experiment: experiment, Workload: workload, SF: sf,
				Metric: s.metric, Knob: knob, X: float64(i), Value: v, Unit: "MB/s",
			})
		}
	}
	EmitWaits(e, experiment, workload, sf, knob, x, r.WaitNs)
	EmitQueryStats(e, experiment, workload, sf, r.QueryStats)
	EmitTelemetry(e, experiment, workload, sf, knob, r.Telemetry)
}

// EmitWaits exports a wait-class breakdown, one wait record per class
// (zero classes included, so the schema is stable).
func EmitWaits(e *Emitter, experiment, workload string, sf int, knob string, x float64, waits [metrics.NumWaitClasses]int64) {
	if e == nil {
		return
	}
	for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
		e.Emit(Record{
			Record: "wait", Experiment: experiment, Workload: workload, SF: sf,
			Metric: c.String(), Knob: knob, X: x, Value: float64(waits[c]), Unit: "ns",
		})
	}
}

// EmitQueryStats exports a query-stats snapshot, one query_stat record
// per template with the cumulative counters and latency percentiles.
func EmitQueryStats(e *Emitter, experiment, workload string, sf int, rows []metrics.QueryStatRow) {
	if e == nil {
		return
	}
	for _, r := range rows {
		f := map[string]float64{
			"executions": float64(r.Executions),
			"errors":     float64(r.Errors),
			"kills":      float64(r.Kills),
			"retries":    float64(r.Retries),
			"degraded":   float64(r.Degraded),
			"rows":       float64(r.Rows),
			"spills":     float64(r.Spills),
			"total_ms":   float64(r.TotalNs) / 1e6,
			"max_ms":     float64(r.MaxNs) / 1e6,
			"mean_ms":    r.Hist.Mean() / 1e6,
			"p50_ms":     r.Hist.Quantile(0.50) / 1e6,
			"p95_ms":     r.Hist.Quantile(0.95) / 1e6,
			"p99_ms":     r.Hist.Quantile(0.99) / 1e6,
		}
		for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
			f["wait_"+strings.ToLower(c.String())+"_ms"] = float64(r.WaitNs[c]) / 1e6
		}
		e.Emit(Record{
			Record: "query_stat", Experiment: experiment, Workload: workload, SF: sf,
			Name: r.Query, Fields: f,
		})
	}
}

// EmitTelemetry exports a telemetry registry snapshot: one series record
// per sample with Metric = "subsystem.name" and X = the sample's
// simulated time in seconds, plus a summary point per histogram-backed
// series (counts, mean, and tail quantiles in ns).
func EmitTelemetry(e *Emitter, experiment, workload string, sf int, knob string, snap *telemetry.Snapshot) {
	if e == nil || snap == nil {
		return
	}
	for _, s := range snap.Series {
		m := s.Subsystem + "." + s.Name
		for _, pt := range s.Points {
			e.Emit(Record{
				Record: "series", Experiment: experiment, Workload: workload, SF: sf,
				Metric: m, Name: s.Kind, Knob: knob, X: pt.At.Seconds(), Value: pt.Value, Unit: s.Unit,
			})
		}
		if s.Hist != nil && s.Hist.N > 0 {
			e.Emit(Record{
				Record: "point", Experiment: experiment, Workload: workload, SF: sf,
				Metric: m + "_summary", Unit: "ns",
				Fields: map[string]float64{
					"n":      float64(s.Hist.N),
					"mean":   s.Hist.Mean(),
					"p50":    s.Hist.Quantile(0.50),
					"p95":    s.Hist.Quantile(0.95),
					"p99":    s.Hist.Quantile(0.99),
					"max_ns": float64(s.Hist.MaxNs),
				},
			})
		}
	}
}

// EmitTrace exports a query trace, one span record per operator in
// pre-order with its depth, so the tree reconstructs from the stream.
func EmitTrace(e *Emitter, experiment, workload string, sf int, tr *trace.Trace) {
	if e == nil || tr == nil || tr.Root == nil {
		return
	}
	var walk func(s *trace.Span, depth int)
	walk = func(s *trace.Span, depth int) {
		par := 0.0
		if s.Parallel {
			par = 1
		}
		e.Emit(Record{
			Record: "span", Experiment: experiment, Workload: workload, SF: sf,
			Metric: s.Op, Name: tr.Query, Text: s.Name,
			Fields: map[string]float64{
				"depth":         float64(depth),
				"parallel":      par,
				"est_rows":      s.EstRows,
				"act_rows":      float64(s.ActRows),
				"nom_rows":      float64(s.NomRows),
				"elapsed_ms":    s.Elapsed().Seconds() * 1e3,
				"self_ms":       s.SelfElapsed().Seconds() * 1e3,
				"buffer_hits":   float64(s.BufferHits),
				"buffer_misses": float64(s.BufferMisses),
				"spills":        float64(s.Spills),
				"wait_ms":       float64(s.TotalWaitNs()) / 1e6,
			},
		})
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(tr.Root, 0)
}

// EmitResilience exports a faultAxis grid, one point record per (cell,
// intensity step) with the robustness counters as fields.
func EmitResilience(e *Emitter, g Grid) {
	for c, cell := range g.Cells {
		for s, r := range g.Results[c] {
			d := r.Delta
			e.Emit(Record{
				Record: "point", Experiment: "resilience", Workload: string(cell.Workload), SF: cell.SF,
				Knob: g.Axis.Knob, X: g.Steps[s],
				Fields: map[string]float64{
					"throughput":      r.Throughput,
					"retention":       retention(g, c, s),
					"faults_injected": float64(d.FaultsInjected),
					"fault_io_errors": float64(d.FaultIOErrors),
					"io_retries":      float64(d.IORetries),
					"txn_retries":     float64(d.TxnRetries),
					"query_retries":   float64(d.QueryRetries),
					"deadline_kills":  float64(d.DeadlineKills),
					"degraded_plans":  float64(d.DegradedPlans),
					"failed":          float64(d.QueriesFailed + d.QueriesCanceled),
				},
			})
		}
	}
}

// EmitRecovery exports the MTTR surface: per cell, an MTTR curve point
// (one curve per storage bandwidth) and a point record with the
// recovery-pass counters.
func EmitRecovery(e *Emitter, r RecoveryResult) {
	for _, p := range r.Points {
		name := fmt.Sprintf("bw%.0fMBps", p.BandwidthMBps)
		x := p.CkptInterval.Seconds() * 1e3
		rep := p.Run.Report
		e.Emit(Record{
			Record: "curve_point", Experiment: "recovery", Workload: "asdb", SF: r.SF,
			Metric: "mttr_ms", Name: name, Knob: "ckpt_interval_ms", X: x,
			Value: p.Run.MTTRMs(), Unit: "ms",
		})
		e.Emit(Record{
			Record: "point", Experiment: "recovery", Workload: "asdb", SF: r.SF,
			Name: name, Knob: "ckpt_interval_ms", X: x,
			Fields: map[string]float64{
				"mttr_ms":        p.Run.MTTRMs(),
				"log_scanned_kb": float64(rep.LogScanned) / 1024,
				"redo_pages":     float64(rep.RedoPages),
				"undo_records":   float64(rep.UndoRecords),
				"clrs":           float64(rep.CLRs),
				"winners":        float64(rep.Winners),
				"losers":         float64(rep.Losers),
				"lost_txns":      float64(rep.LostTxns),
			},
		})
	}
}

// EmitCrashMatrix exports the crash-point grid, one point record per
// cell with the invariant verdict in Text ("" = verified).
func EmitCrashMatrix(e *Emitter, r CrashMatrixResult) {
	for _, c := range r.Cells {
		idem := 0.0
		if c.Run.Idempotent() {
			idem = 1
		}
		rep := c.Run.Report
		e.Emit(Record{
			Record: "point", Experiment: "recovery_matrix", Workload: "asdb", SF: r.SF,
			Name: c.Plan.Point.String(), Knob: "nth", X: float64(c.Plan.Nth),
			Text: c.Run.InvariantErr,
			Fields: map[string]float64{
				"crash_lsn":    float64(rep.CrashLSN),
				"lost_records": float64(rep.LostRecords),
				"lost_txns":    float64(rep.LostTxns),
				"winners":      float64(rep.Winners),
				"losers":       float64(rep.Losers),
				"redo_pages":   float64(rep.RedoPages),
				"undo_records": float64(rep.UndoRecords),
				"clrs":         float64(rep.CLRs),
				"mttr_ms":      c.Run.MTTRMs(),
				"passes":       float64(c.Run.Passes),
				"idempotent":   idem,
			},
		})
	}
}

// EmitReplication exports the commit-mode sweep: per cell a point
// record, then (when armed) its telemetry series and traced commits'
// cross-node span trees.
func EmitReplication(e *Emitter, r ReplicationResult) {
	for _, p := range r.Points {
		e.Emit(Record{
			Record: "point", Experiment: "replication", Workload: "asdb", SF: r.SF,
			Name: fmt.Sprintf("%s-r%d", p.Mode, p.Replicas),
			Knob: "bandwidth_mbps", X: p.BandwidthMBps,
			Text: p.Err,
			Fields: map[string]float64{
				"replicas":      float64(p.Replicas),
				"tps":           p.TPS,
				"commit_ack_ms": p.CommitAckMs,
				"max_lag_kb":    p.MaxLagKB,
				"shipped_mb":    p.ShippedMB,
				"applied_txns":  float64(p.AppliedTxns),
				"unacked":       float64(p.Unacked),
			},
		})
		cell := fmt.Sprintf("%s-r%d-bw%.0f", p.Mode, p.Replicas, p.BandwidthMBps)
		EmitTelemetry(e, "replication", "asdb", r.SF, cell, p.Telemetry)
		for _, tr := range p.CommitSpans {
			EmitTrace(e, "replication", "asdb", r.SF, tr)
		}
	}
}

// EmitFailover exports the failover sweep: per cell a point record with
// the RTO phases and PITR verification, plus the RTO span tree for
// cells that verified.
func EmitFailover(e *Emitter, r FailoverResult) {
	for _, c := range r.Cells {
		e.Emit(Record{
			Record: "point", Experiment: "failover", Workload: "asdb", SF: r.SF,
			Name: c.Mode.String(), Knob: "replicas", X: float64(c.Replicas),
			Text: c.Err,
			Fields: map[string]float64{
				"commits":         float64(c.Commits),
				"rto_ms":          c.Failover.RTO.Seconds() * 1e3,
				"detect_ms":       c.Failover.Detect.Seconds() * 1e3,
				"replay_ms":       c.Failover.Replay.Seconds() * 1e3,
				"promote_ms":      c.Failover.Promote.Seconds() * 1e3,
				"promoted":        float64(c.Failover.Promoted),
				"primary_lsn":     float64(c.Failover.PrimaryLSN),
				"promoted_lsn":    float64(c.Failover.PromotedLSN),
				"acked":           float64(c.Failover.AckedCommits),
				"lost_acked":      float64(c.Failover.LostAckedCommits),
				"lost_commits":    float64(c.Failover.LostCommits),
				"pitr_target_lsn": float64(c.PITR.TargetLSN),
				"pitr_landed_lsn": float64(c.PITR.LandedLSN),
				"pitr_segments":   float64(c.PITR.Segments),
				"pitr_records":    float64(c.PITR.Records),
				"pitr_txns":       float64(c.PITR.Txns),
				"pitr_ms":         c.PITR.Elapsed.Seconds() * 1e3,
			},
		})
		if c.Err == "" {
			EmitTrace(e, "failover", "asdb", r.SF, c.Failover.TraceTree())
		}
	}
}
