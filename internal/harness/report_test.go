package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func demoFamily() CurveFamily {
	a := core.Curve{Name: "a"}
	a.Add(2, 10)
	a.Add(8, 30)
	b := core.Curve{Name: "b"}
	b.Add(2, 5)
	b.Add(8, 12)
	return CurveFamily{10: a, 300: b}
}

func TestRenderFamily(t *testing.T) {
	out := RenderFamily("demo", demoFamily(), "cores")
	if !strings.Contains(out, "-- demo --") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "10") || !strings.HasPrefix(lines[4], "300") {
		t.Fatalf("rows not sorted by SF:\n%s", out)
	}
}

func TestRenderFamilyMissingPoints(t *testing.T) {
	fam := demoFamily()
	c := core.Curve{Name: "c"}
	c.Add(4, 7) // x=4 exists only here; 2 and 8 missing for this SF
	fam[30] = c
	out := RenderFamily("demo", fam, "cores")
	if !strings.Contains(out, "-") {
		t.Fatal("missing points should render as -")
	}
}
