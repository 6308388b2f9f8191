package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestEmitterJSONDeterministicAndParsable(t *testing.T) {
	emitOnce := func() string {
		var b bytes.Buffer
		e := NewEmitter(&b)
		e.Emit(Record{Record: "point", Experiment: "x", Fields: map[string]float64{"b": 2, "a": 1}})
		var waits [metrics.NumWaitClasses]int64
		waits[metrics.WaitLock] = 1e6
		EmitWaits(e, "x", "tpch", 100, "cores", 4, waits)
		EmitQueryStats(e, "x", "tpch", 100, []metrics.QueryStatRow{{Query: "tpch.Q14", Executions: 3}})
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := emitOnce(), emitOnce()
	if a != b {
		t.Fatal("JSON emission is not byte-deterministic")
	}

	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	want := 1 + int(metrics.NumWaitClasses) + 1
	if len(lines) != want {
		t.Fatalf("records = %d, want %d (wait records must cover every class)", len(lines), want)
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("unparsable line %q: %v", ln, err)
		}
		if m["record"] == "" || m["experiment"] != "x" {
			t.Fatalf("record missing identity fields: %q", ln)
		}
	}

	// query_stat rows carry a wait_<class>_ms field for every class, so
	// downstream schemas stay stable as waits appear and disappear.
	var qs struct {
		Fields map[string]float64 `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &qs); err != nil {
		t.Fatal(err)
	}
	for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
		k := "wait_" + strings.ToLower(c.String()) + "_ms"
		if _, ok := qs.Fields[k]; !ok {
			t.Fatalf("query_stat missing %s: %v", k, qs.Fields)
		}
	}
	for _, k := range []string{"executions", "p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"} {
		if _, ok := qs.Fields[k]; !ok {
			t.Fatalf("query_stat missing %s", k)
		}
	}
}

// A nil emitter discards everywhere, so experiment code needs no guards.
func TestEmitterNilSafe(t *testing.T) {
	var e *Emitter
	e.Emit(Record{Record: "point"})
	EmitResult(e, "x", "tpch", 1, "", 0, Result{})
	EmitCurve(e, "x", "tpch", 1, "m", "k", "u", core.Curve{Points: []core.Point{{X: 1, Y: 2}}})
	EmitTable(e, "x", "t", core.Table{})
	EmitDistribution(e, "x", "tpch", 1, "m", "u", metrics.NewDistribution([]float64{1}))
	EmitTrace(e, "x", "tpch", 1, nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmitTableAndDistribution(t *testing.T) {
	var b bytes.Buffer
	e := NewEmitter(&b)
	tab := core.Table{Headers: []string{"h1", "h2"}}
	tab.AddRow("a", "b")
	EmitTable(e, "x", "mytable", tab)
	EmitDistribution(e, "x", "asdb", 5, "dram_mbps", "MB/s", metrics.NewDistribution([]float64{1, 2, 3}))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"text":"h1=a; h2=b"`) {
		t.Fatalf("table row not packed: %s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// 1 table_row + 3 cdf_point + 1 summary
	if len(lines) != 5 {
		t.Fatalf("records = %d: %s", len(lines), out)
	}
	var last struct {
		Metric string             `json:"metric"`
		Fields map[string]float64 `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[4]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Metric != "dram_mbps_summary" || last.Fields["p50"] != 2 || last.Fields["n"] != 3 {
		t.Fatalf("summary record = %+v", last)
	}
}
