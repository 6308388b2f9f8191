package harness

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestRunTPCHPointProducesSignal(t *testing.T) {
	opt := TestOptions()
	r := RunTPCH(1, opt, Knobs{})
	if r.Throughput <= 0 {
		t.Fatalf("QPS = %f", r.Throughput)
	}
	if r.MPKI <= 0 || r.DRAMMBps <= 0 {
		t.Fatalf("counters empty: mpki=%f dram=%f", r.MPKI, r.DRAMMBps)
	}
}

func TestCoreSweepScales(t *testing.T) {
	opt := TestOptions()
	// Tiny-scale queries correctly run serial plans (cost threshold), so
	// isolate inter-query parallelism: more streams than cores, MAXDOP
	// forced to 1 so plan changes cannot confound the sweep.
	opt.Streams = 8
	opt.Measure = 6 * sim.Second
	lo := RunTPCH(2, opt, Knobs{Cores: 1, MaxDOP: 1}).Throughput
	hi := RunTPCH(2, opt, Knobs{Cores: 8, MaxDOP: 1}).Throughput
	if hi <= lo {
		t.Fatalf("throughput did not scale with cores: 1c=%f 8c=%f", lo, hi)
	}
}

func TestLLCSweepHelps(t *testing.T) {
	opt := TestOptions()
	g := SweepAxis(AxisLLC, []float64{2, 40}, []Cell{{WTpch, 2}}, opt)
	small, full := g.Results[0][0], g.Results[0][1]
	if full.Throughput < small.Throughput {
		t.Fatalf("more cache slowed things down: 2MB=%f 40MB=%f", small.Throughput, full.Throughput)
	}
	if full.MPKI > small.MPKI {
		t.Fatalf("MPKI rose with more cache: 2MB=%f 40MB=%f", small.MPKI, full.MPKI)
	}
}

func TestOLTPPointsRun(t *testing.T) {
	opt := TestOptions()
	if r := RunTPCE(300, opt, Knobs{Cores: 8}); r.Throughput <= 0 {
		t.Fatalf("TPC-E TPS = %f", r.Throughput)
	}
	if r := RunASDB(5, opt, Knobs{Cores: 8}); r.Throughput <= 0 {
		t.Fatalf("ASDB TPS = %f", r.Throughput)
	}
	r := RunHTAP(300, opt, Knobs{Cores: 8})
	if r.OLTPTps <= 0 || r.DSSQps <= 0 {
		t.Fatalf("HTAP components: tps=%f qps=%f", r.OLTPTps, r.DSSQps)
	}
}

func TestTable3ShowsIOShift(t *testing.T) {
	opt := TestOptions()
	res := Table3(200, 1500, opt)
	var lockRatio, ioRatio float64
	for _, r := range res.Ratios {
		switch r.Label {
		case metrics.WaitLock.String():
			lockRatio = r.Value()
		case metrics.WaitPageIOLatch.String():
			ioRatio = r.Value()
		}
	}
	if lockRatio >= 1 {
		t.Errorf("LOCK ratio = %.2f, want < 1 (less contention at larger SF)", lockRatio)
	}
	t.Logf("table3: ratios=%v sum=%v io=%v", res.Ratios, res.SumLockLatchPage.Value(), ioRatio)
}

func TestFig7PlanShapesDiffer(t *testing.T) {
	opt := TestOptions()
	small := Fig7(1, opt)
	if small.SerialShape == "" || small.ParShape == "" {
		t.Fatal("empty shapes")
	}
	t.Logf("sf1  serial=%s", small.SerialShape)
	t.Logf("sf1  dop32 =%s", small.ParShape)
	big := Fig7(300, opt)
	t.Logf("sf300 serial=%s", big.SerialShape)
	t.Logf("sf300 dop32 =%s", big.ParShape)
	if !strings.Contains(big.ParallelPlan, "⇉") && big.ParShape == big.SerialShape {
		t.Error("SF300 parallel plan identical to serial plan")
	}
}

func TestTable2RendersAllRows(t *testing.T) {
	opt := TestOptions()
	opt.Density = 30
	tb := Table2(opt)
	out := tb.Render()
	for _, name := range []string{"ASDB", "TPC-E", "HTAP", "TPC-H"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s in table:\n%s", name, out)
		}
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tb.Rows))
	}
	t.Logf("\n%s", out)
}

func TestExperimentDeterminism(t *testing.T) {
	opt := TestOptions()
	run := func() (float64, float64, int64) {
		r := RunTPCH(1, opt, Knobs{Cores: 8, LLCMB: 8})
		return r.Throughput, r.MPKI, r.Delta.Instructions
	}
	q1, m1, i1 := run()
	q2, m2, i2 := run()
	if q1 != q2 || m1 != m2 || i1 != i2 {
		t.Fatalf("same seed diverged: (%f,%f,%d) vs (%f,%f,%d)", q1, m1, i1, q2, m2, i2)
	}
}

func TestOLTPDeterminism(t *testing.T) {
	opt := TestOptions()
	a := RunASDB(5, opt, Knobs{Cores: 4})
	b := RunASDB(5, opt, Knobs{Cores: 4})
	if a.Delta.TxnCommits != b.Delta.TxnCommits || a.Delta.Instructions != b.Delta.Instructions {
		t.Fatalf("OLTP diverged: %d/%d vs %d/%d",
			a.Delta.TxnCommits, a.Delta.Instructions, b.Delta.TxnCommits, b.Delta.Instructions)
	}
}
