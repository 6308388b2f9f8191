package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func kneeCurve() Curve {
	// Sharp knee at x=10: fast rise then slow tail (the paper's LLC shape).
	pts := []Point{}
	for x := 2.0; x <= 40; x += 2 {
		y := 1 - math.Exp(-x/5) + 0.002*x
		pts = append(pts, Point{x, y})
	}
	return NewCurve("llc", pts)
}

func TestAtInterpolates(t *testing.T) {
	c := NewCurve("c", []Point{{0, 0}, {10, 100}})
	if y, ok := c.At(5); !ok || y != 50 {
		t.Fatalf("At(5) = %v,%v", y, ok)
	}
	if _, ok := c.At(11); ok {
		t.Fatal("At outside domain should fail")
	}
	if y, ok := c.At(10); !ok || y != 100 {
		t.Fatalf("At(10) = %v,%v", y, ok)
	}
}

func TestSufficientCapacity(t *testing.T) {
	c := kneeCurve()
	x90, ok := c.SufficientCapacity(0.90)
	if !ok {
		t.Fatal("no 90% point")
	}
	x95, ok := c.SufficientCapacity(0.95)
	if !ok {
		t.Fatal("no 95% point")
	}
	if x90 > x95 {
		t.Fatalf("90%% capacity %v > 95%% capacity %v", x90, x95)
	}
	if x90 >= 30 {
		t.Fatalf("knee curve 90%% point too late: %v", x90)
	}
}

func TestKneeDetection(t *testing.T) {
	c := kneeCurve()
	k, ok := c.Knee()
	if !ok {
		t.Fatal("no knee found")
	}
	if k.X < 4 || k.X > 16 {
		t.Fatalf("knee at %v, expected near 10", k.X)
	}
	flat := NewCurve("flat", []Point{{1, 1}, {2, 2}})
	if _, ok := flat.Knee(); ok {
		t.Fatal("two-point curve cannot have a knee")
	}
}

func TestLinearReferenceAndTarget(t *testing.T) {
	// Concave curve: actual allocation for a target is below linear.
	pts := []Point{}
	for x := 100.0; x <= 1000; x += 100 {
		pts = append(pts, Point{x, math.Sqrt(x)})
	}
	c := NewCurve("qps", pts)
	lin := c.LinearReference()
	if lin.Last().Y != c.Last().Y {
		t.Fatal("linear reference must agree at the endpoint")
	}
	target := c.Last().Y * 0.9
	actualX, linearX, ok := c.AllocationForTarget(target)
	if !ok {
		t.Fatal("no allocation found")
	}
	if actualX >= linearX {
		t.Fatalf("concave curve: actual %v should beat linear %v", actualX, linearX)
	}
	// The paper's example: ~20% savings.
	if savings := 1 - actualX/linearX; savings < 0.05 {
		t.Fatalf("savings = %.2f", savings)
	}
}

func TestSufficientCapacityMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		// Any nondecreasing curve: capacity(0.9) <= capacity(0.95).
		pts := []Point{}
		y := 0.0
		for x := 1.0; x <= 20; x++ {
			y += math.Abs(math.Sin(float64(seed) + x))
			pts = append(pts, Point{x, y})
		}
		c := NewCurve("p", pts)
		a, okA := c.SufficientCapacity(0.9)
		b, okB := c.SufficientCapacity(0.95)
		return okA && okB && a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndTable(t *testing.T) {
	r := Ratio{Label: "LOCK", Num: 15, Den: 100}
	if r.Value() != 0.15 {
		t.Fatalf("ratio = %v", r.Value())
	}
	if (Ratio{Num: 1}).Value() != 0 {
		t.Fatal("zero denominator should be 0")
	}
	tb := Table{Headers: []string{"Workload", "SF", "Perf>=90%"}}
	tb.AddRow("ASDB", "2000", "8 MB")
	tb.AddRow("TPC-H", "100", "16 MB")
	out := tb.Render()
	if !strings.Contains(out, "ASDB") || !strings.Contains(out, "----") {
		t.Fatalf("render = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
}

func TestF(t *testing.T) {
	if F(0) != "0" || F(1234) != "1234" || F(12.34) != "12.3" || F(0.123) != "0.123" {
		t.Fatalf("F formats: %s %s %s %s", F(0), F(1234), F(12.34), F(0.123))
	}
}
