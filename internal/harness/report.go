package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// CurveFamily is a set of curves keyed by scale factor — the shape of
// every Figure 2 panel.
type CurveFamily map[int]core.Curve

// sortedSFs returns the family's scale factors in ascending order.
func sortedSFs(m CurveFamily) []int {
	out := make([]int, 0, len(m))
	for sf := range m {
		out = append(out, sf)
	}
	sort.Ints(out)
	return out
}

// xValues returns the union of X coordinates across the family, sorted.
func xValues(m CurveFamily) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, c := range m {
		for _, p := range c.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// RenderFamily renders a curve family as an aligned text table with the
// knob values as columns (the dbsense output format).
func RenderFamily(title string, fam CurveFamily, knob string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", title)
	xs := xValues(fam)
	headers := []string{"SF \\ " + knob}
	for _, x := range xs {
		headers = append(headers, core.F(x))
	}
	t := core.Table{Headers: headers}
	for _, sf := range sortedSFs(fam) {
		row := []string{fmt.Sprint(sf)}
		c := fam[sf]
		for _, x := range xs {
			if y, ok := c.At(x); ok {
				row = append(row, core.F(y))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	b.WriteString(t.Render())
	return b.String()
}
