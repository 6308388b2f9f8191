package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceTPCHCapturesSpans(t *testing.T) {
	opt := TestOptions()
	res := TraceTPCH(1, 14, opt)
	if res.Err != "" {
		t.Fatalf("traced query failed: %s", res.Err)
	}
	if res.Trace == nil || res.Trace.Root == nil {
		t.Fatal("no span tree captured")
	}
	root := res.Trace.Root
	if root.End <= root.Start {
		t.Fatalf("root span has no duration: %+v", root)
	}
	if len(root.Children) == 0 {
		t.Fatal("Q14 plan should have child operators")
	}
	if res.Stmt == nil || res.Stmt.Instructions == 0 {
		t.Fatal("statement counters not attributed")
	}

	out := res.Render()
	for _, want := range []string{"actual plan: tpch.Q14", "act ", "waits:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	// Tracing reads the simulation, never drives it: a second identical
	// run renders the identical report.
	res2 := TraceTPCH(1, 14, opt)
	if out2 := res2.Render(); out2 != out {
		t.Fatalf("trace not deterministic:\n%s\nvs\n%s", out, out2)
	}

	var b bytes.Buffer
	e := NewEmitter(&b)
	EmitTrace(e, "trace", "tpch", 1, res.Trace)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), `"record":"span"`); n < 2 {
		t.Fatalf("span records = %d, want the whole tree", n)
	}
}

// TestTracingDoesNotPerturbResults: the tentpole invariant — turning
// tracing and query-stats collection on must not move a single measured
// number, because spans only read the statement counters on the
// simulated clock.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	opt := TestOptions()
	a := RunTPCH(1, opt, Knobs{})
	b := RunTPCH(1, opt, Knobs{Trace: true})
	if a.Throughput != b.Throughput || a.MPKI != b.MPKI || a.SSDReadMBps != b.SSDReadMBps {
		t.Fatalf("tracing changed results: %+v vs %+v", a, b)
	}
}

func TestRunQStatsCollectsTemplates(t *testing.T) {
	opt := TestOptions()
	rows := RunASDB(5, opt, Knobs{}).QueryStats
	if len(rows) == 0 {
		t.Fatal("no query-stats rows collected")
	}
	seen := map[string]bool{}
	var execs int64
	for i, r := range rows {
		if i > 0 && rows[i-1].Query >= r.Query {
			t.Fatalf("snapshot not sorted: %q then %q", rows[i-1].Query, r.Query)
		}
		seen[r.Query] = true
		execs += r.Executions
		if r.Hist.N != r.Executions {
			t.Fatalf("%s: histogram N=%d != executions %d", r.Query, r.Hist.N, r.Executions)
		}
	}
	if !seen["asdb.PointRead"] || !seen["asdb.Update"] {
		t.Fatalf("expected asdb templates, got %v", seen)
	}
	if execs == 0 {
		t.Fatal("no executions recorded")
	}
	table := QueryStatsTable(rows)
	if len(table.Rows) != len(rows) {
		t.Fatalf("table rows = %d, want %d", len(table.Rows), len(rows))
	}
}
