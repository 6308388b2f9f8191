package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// seriesRec is the subset of the harness emitter's JSONL record schema
// the series renderer reads.
type seriesRec struct {
	Record        string  `json:"record"`
	Experiment    string  `json:"experiment"`
	Metric        string  `json:"metric"`
	Knob          string  `json:"knob"`
	X             float64 `json:"x"`
	Value         float64 `json:"value"`
	Unit          string  `json:"unit"`
	SchemaVersion int     `json:"schema_version"`
}

// sparkRunes is the eight-level sparkline alphabet.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled min..max into an eight-level bar string,
// resampled to at most width cells.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	n := len(vals)
	if n > width {
		n = width
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		// Average the bucket of samples this cell covers.
		from, to := i*len(vals)/n, (i+1)*len(vals)/n
		if to <= from {
			to = from + 1
		}
		sum := 0.0
		for _, v := range vals[from:to] {
			sum += v
		}
		v := sum / float64(to-from)
		lvl := 0
		if hi > lo {
			lvl = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[lvl])
	}
	return b.String()
}

// renderSeries reads an emitter JSONL file and prints one aligned
// summary row (n, min, mean, max, p99, sparkline) per telemetry series,
// grouped by experiment cell. Mixed schema_version streams are rejected:
// aggregating across schema generations silently misreads fields.
func renderSeries(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)

	type key struct{ cell, metric, unit string }
	var order []key
	groups := make(map[key][]float64)
	versions := make(map[int]bool)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec seriesRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("simstat: bad record: %v", err)
		}
		versions[rec.SchemaVersion] = true
		if len(versions) > 1 {
			var vs []string
			for v := range versions {
				if v == 0 {
					vs = append(vs, "pre-versioned")
				} else {
					vs = append(vs, fmt.Sprint(v))
				}
			}
			sort.Strings(vs)
			return fmt.Errorf("simstat: mixed schema_version values in input (%s): re-emit with one dbsense build",
				strings.Join(vs, " and "))
		}
		if rec.Record != "series" {
			continue
		}
		cell := rec.Experiment
		if rec.Knob != "" {
			cell += "/" + rec.Knob
		}
		k := key{cell: cell, metric: rec.Metric, unit: rec.Unit}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rec.Value)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("simstat: %v", err)
	}
	if len(order) == 0 {
		return fmt.Errorf("simstat: no series records in input (emit with dbsense -o FILE)")
	}

	lastCell := ""
	for _, k := range order {
		if k.cell != lastCell {
			fmt.Fprintf(w, "== %s ==\n", k.cell)
			fmt.Fprintf(w, "%-28s %-6s %5s %12s %12s %12s %12s  %s\n",
				"series", "unit", "n", "min", "mean", "max", "p99", "trend")
			lastCell = k.cell
		}
		vals := groups[k]
		lo, hi, sum := vals[0], vals[0], 0.0
		for _, v := range vals {
			lo, hi, sum = math.Min(lo, v), math.Max(hi, v), sum+v
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		fmt.Fprintf(w, "%-28s %-6s %5d %12.4g %12.4g %12.4g %12.4g  %s\n",
			k.metric, k.unit, len(vals), lo, sum/float64(len(vals)), hi,
			telemetry.PercentileSorted(sorted, 99), sparkline(vals, 32))
	}
	return nil
}

// runSeries opens the -series file and renders it to stdout.
func runSeries(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := renderSeries(f, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
