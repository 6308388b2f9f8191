// Package core is the paper's primary contribution as a reusable
// library: resource-sensitivity characterization. Given measurements of a
// workload under swept resource allocations (cores, LLC ways, bandwidth
// limits, DOP, memory grants), it derives the analyses the paper reports:
// sensitivity curves, knees, sufficient-capacity thresholds (Table 4),
// before/after ratios (Table 3), and linear-versus-actual response
// comparisons (Figure 5), plus paper-style text rendering.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one measurement: a knob setting X and an observed value Y.
type Point struct {
	X float64
	Y float64
}

// Curve is a named response curve, kept sorted by X.
type Curve struct {
	Name   string
	Points []Point
}

// NewCurve builds a curve, sorting by X.
func NewCurve(name string, pts []Point) Curve {
	c := Curve{Name: name, Points: append([]Point(nil), pts...)}
	sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].X < c.Points[j].X })
	return c
}

// Add appends a point, keeping order.
func (c *Curve) Add(x, y float64) {
	c.Points = append(c.Points, Point{x, y})
	sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].X < c.Points[j].X })
}

// At returns the Y at exactly x, or an interpolated value for x inside
// the domain; ok is false outside the domain.
func (c Curve) At(x float64) (float64, bool) {
	n := len(c.Points)
	if n == 0 || x < c.Points[0].X || x > c.Points[n-1].X {
		return 0, false
	}
	for i, p := range c.Points {
		if p.X == x {
			return p.Y, true
		}
		if p.X > x {
			prev := c.Points[i-1]
			frac := (x - prev.X) / (p.X - prev.X)
			return prev.Y + frac*(p.Y-prev.Y), true
		}
	}
	return c.Points[n-1].Y, true
}

// Last returns the point with the largest X.
func (c Curve) Last() Point {
	if len(c.Points) == 0 {
		return Point{}
	}
	return c.Points[len(c.Points)-1]
}

// SufficientCapacity returns the smallest X whose Y reaches frac of the
// full-allocation Y (Table 4: LLC size for >= 90% / 95% performance).
// ok is false if no point qualifies.
func (c Curve) SufficientCapacity(frac float64) (float64, bool) {
	target := c.Last().Y * frac
	for _, p := range c.Points {
		if p.Y >= target {
			return p.X, true
		}
	}
	return 0, false
}

// Knee locates the curve's knee with the Kneedle-style max-distance
// method: the point farthest above the chord from first to last point
// (normalized). A sharp knee at small X is the paper's signature cache
// behaviour.
func (c Curve) Knee() (Point, bool) {
	n := len(c.Points)
	if n < 3 {
		return Point{}, false
	}
	first, last := c.Points[0], c.Points[n-1]
	dx, dy := last.X-first.X, last.Y-first.Y
	if dx == 0 {
		return Point{}, false
	}
	bestD, bestI := 0.0, -1
	for i := 1; i < n-1; i++ {
		p := c.Points[i]
		// Perpendicular-ish distance above the chord, normalized axes.
		t := (p.X - first.X) / dx
		chordY := first.Y + t*dy
		d := (p.Y - chordY) / math.Max(math.Abs(dy), 1e-12)
		if d > bestD {
			bestD, bestI = d, i
		}
	}
	if bestI < 0 {
		return Point{}, false
	}
	return c.Points[bestI], true
}

// LinearReference returns the straight line through the origin and the
// curve's last point, sampled at the curve's X values — Figure 5's
// hypothetical linear response.
func (c Curve) LinearReference() Curve {
	last := c.Last()
	out := Curve{Name: c.Name + " (linear)"}
	slope := 0.0
	if last.X != 0 {
		slope = last.Y / last.X
	}
	for _, p := range c.Points {
		out.Points = append(out.Points, Point{p.X, slope * p.X})
	}
	return out
}

// AllocationForTarget answers Figure 5's provisioning question: the
// smallest allocation reaching targetY under the actual curve, and the
// allocation a linear model would prescribe. The gap is the
// over-provisioning a linear assumption costs.
func (c Curve) AllocationForTarget(targetY float64) (actualX, linearX float64, ok bool) {
	last := c.Last()
	if last.X == 0 || last.Y <= 0 || len(c.Points) == 0 {
		return 0, 0, false
	}
	slope := last.Y / last.X
	linearX = targetY / slope
	// Actual: first X (interpolated) where Y >= target.
	prev := c.Points[0]
	if prev.Y >= targetY {
		return prev.X, linearX, true
	}
	for _, p := range c.Points[1:] {
		if p.Y >= targetY {
			frac := (targetY - prev.Y) / (p.Y - prev.Y)
			return prev.X + frac*(p.X-prev.X), linearX, true
		}
		prev = p
	}
	return 0, linearX, false
}

// Ratio is a labelled before/after ratio (Table 3 rows).
type Ratio struct {
	Label string
	Num   float64
	Den   float64
}

// Value returns Num/Den (0 when the denominator is 0).
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// Table is a simple text table renderer producing the paper-style
// aligned output used by the harness and examples.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned text table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
