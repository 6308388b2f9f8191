package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (results, error) {
	var r results
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worsening is how much worse b is than a as a share of a (negative =
// better), in the metric's own direction.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compare(a, b)
}

// compare applies each end-to-end metric's bound to two sets of results
// (a the baseline, b the candidate) and prints one row per (workload,
// metric). A metric whose within-run min-max spread exceeds its bound on
// either side cannot resolve a move of that size and is marked
// unresolved rather than ok. It returns the process exit code: 1 on any
// violation.
func compare(a, b results) int {
	byName := make(map[string]report, len(b.Workloads))
	for _, rp := range b.Workloads {
		byName[rp.Workload] = rp
	}
	fmt.Printf("%-15s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	violations := 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Printf("%-15s missing from B\n", ra.Workload)
			violations++
			continue
		}
		for _, s := range endToEndSpec {
			sa, sb := ra.EndToEnd[s.Name], rb.EndToEnd[s.Name]
			w := worsening(s.Better, sa.Value, sb.Value)
			spread := 0.0
			for _, st := range []stat{sa, sb} {
				if st.Value != 0 {
					spread = max(spread, (st.Max-st.Min)/st.Value)
				}
			}
			verdict := "ok"
			switch {
			case w > s.Bound:
				verdict = "VIOLATION"
				violations++
			case spread > s.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-15s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				ra.Workload, s.Name, sa.Value, sb.Value, 100*w, 100*s.Bound, verdict)
		}
	}
	if violations > 0 {
		fmt.Printf("%d violation(s)\n", violations)
		return 1
	}
	return 0
}
