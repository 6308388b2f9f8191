package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// demoGrid is a hand-built 2-cell x 2-step grid: no simulation runs.
func demoGrid() Grid {
	return Grid{
		Axis:  AxisCores,
		Steps: []float64{2, 8},
		Cells: []Cell{{WTpch, 10}, {WTpch, 300}},
		Results: [][]Result{
			{{Throughput: 10, MPKI: 4}, {Throughput: 30, MPKI: 3}},
			{{Throughput: 5, MPKI: 9}, {Throughput: 12, MPKI: 7}},
		},
	}
}

func TestRenderFamily(t *testing.T) {
	out := RenderFamily("demo", demoGrid(), Throughput, "cores")
	if !strings.Contains(out, "-- demo --") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if f := strings.Fields(lines[1]); len(f) != 5 || f[3] != core.F(2) || f[4] != core.F(8) {
		t.Fatalf("header is not the axis steps: %q", lines[1])
	}
	if a, b := strings.Fields(lines[3]), strings.Fields(lines[4]); a[0] != "10" || a[2] != core.F(30) || b[0] != "300" || b[1] != core.F(5) {
		t.Fatalf("rows are not the cells in order:\n%s", out)
	}
	if mpki := RenderFamily("demo", demoGrid(), MPKI, "cores"); !strings.Contains(mpki, core.F(9)) || strings.Contains(mpki, core.F(30)) {
		t.Fatalf("MPKI panel does not read MPKI:\n%s", mpki)
	}
}

func TestGridCurveNamesAndPoints(t *testing.T) {
	c := demoGrid().Curve(1, MPKI, "-mpki")
	if c.Name != "tpch-sf300-mpki" {
		t.Fatalf("curve name = %q", c.Name)
	}
	if len(c.Points) != 2 || c.Points[0].X != 2 || c.Points[0].Y != 9 || c.Points[1].X != 8 || c.Points[1].Y != 7 {
		t.Fatalf("curve points = %v", c.Points)
	}
}
