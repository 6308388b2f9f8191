package harness

import (
	"fmt"

	"repro/internal/core"
)

// RenderFamily renders metric m of a grid as an aligned text table, one
// row per cell's scale factor with the axis steps as columns (the dbsense
// format of every Figure 2 panel); label names the axis in the corner.
func RenderFamily(title string, g Grid, m Metric, label string) string {
	headers := []string{"SF \\ " + label}
	for _, x := range g.Steps {
		headers = append(headers, core.F(x))
	}
	t := core.Table{Headers: headers}
	for c, cell := range g.Cells {
		row := []string{fmt.Sprint(cell.SF)}
		for _, r := range g.Results[c] {
			row = append(row, core.F(m(r)))
		}
		t.AddRow(row...)
	}
	return fmt.Sprintf("-- %s --\n%s", title, t.Render())
}
