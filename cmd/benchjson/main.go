// Command benchjson converts `go test -bench` output into a committed
// BENCH_<commit>.json snapshot and gates CI on regressions against the
// previous snapshot. The committed files form a performance trajectory:
// one point per merged change, diffable in-repo.
//
// Usage:
//
//	go test -bench . -benchmem ./... | tee bench.txt
//	go run ./cmd/benchjson -in bench.txt -dir . -commit $(git rev-parse --short HEAD) -write -check
//
// Gating rules (per metric, comparing against the newest previous
// BENCH_*.json in -dir):
//
//   - metrics whose name contains "wall" are never gated (wall-clock
//     noise from shared CI runners);
//   - ns/op, B/op and allocs/op are machine-sensitive and only gated
//     when -wall is passed;
//   - a metric whose name contains "sim_ms" is a time and lower-better
//     whatever else it is called (time_to_goodput_sim_ms); otherwise it
//     is higher-better when its name contains "speedup", "gain",
//     "survival", "goodput" or "frac", or ends in "_x"; everything else
//     defaults to lower-better;
//   - a relative regression beyond -threshold (default 10%) fails.
//
// The first run (no previous snapshot) just seeds the baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// snapshot is the on-disk BENCH_<commit>.json schema.
type snapshot struct {
	Schema     string                        `json:"schema"`
	Commit     string                        `json:"commit"`
	Seq        int64                         `json:"seq"`
	Go         string                        `json:"go"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parseBench extracts benchmark metrics from `go test -bench` output.
func parseBench(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		// Strip the -GOMAXPROCS suffix so snapshots compare across runners.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		fields := strings.Fields(m[3])
		metrics := map[string]float64{}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) > 0 {
			out[name] = metrics
		}
	}
	return out, sc.Err()
}

// benchSchema is the snapshot schema this build reads and writes.
// previous() rejects a directory holding mixed schema values: comparing
// metrics recorded under different schemas gates on garbage.
const benchSchema = "dbsense-bench/v1"

// previous returns the newest committed snapshot in dir, or nil.
func previous(dir string) (*snapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var newest *snapshot
	newestPath := ""
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if newest != nil && s.Schema != newest.Schema {
			return nil, fmt.Errorf("mixed snapshot schemas: %s has %q, %s has %q — prune one generation before comparing",
				p, s.Schema, newestPath, newest.Schema)
		}
		if newest == nil || s.Seq > newest.Seq {
			newest = &s
			newestPath = p
		}
	}
	if newest != nil && newest.Schema != benchSchema {
		return nil, fmt.Errorf("%s: snapshot schema %q does not match this build's %q",
			newestPath, newest.Schema, benchSchema)
	}
	return newest, nil
}

func higherBetter(metric string) bool {
	if strings.Contains(metric, "sim_ms") {
		return false
	}
	for _, s := range []string{"speedup", "gain", "survival", "goodput", "frac"} {
		if strings.Contains(metric, s) {
			return true
		}
	}
	return strings.HasSuffix(metric, "_x")
}

func gated(metric string, wall bool) bool {
	if strings.Contains(metric, "wall") {
		return false
	}
	switch metric {
	case "ns/op", "B/op", "allocs/op", "MB/s":
		return wall
	}
	return true
}

func main() {
	in := flag.String("in", "bench.txt", "go test -bench output to parse")
	dir := flag.String("dir", ".", "directory holding BENCH_*.json snapshots")
	commit := flag.String("commit", "dev", "short commit hash for the snapshot name")
	write := flag.Bool("write", false, "write BENCH_<commit>.json")
	check := flag.Bool("check", false, "fail on regression vs the previous snapshot")
	threshold := flag.Float64("threshold", 0.10, "relative regression that fails the check")
	wall := flag.Bool("wall", false, "also gate machine-sensitive metrics (ns/op, B/op, allocs/op)")
	flag.Parse()

	benches, err := parseBench(*in)
	if err != nil {
		fatal("parse %s: %v", *in, err)
	}
	if len(benches) == 0 {
		fatal("no benchmark lines found in %s", *in)
	}

	prev, err := previous(*dir)
	if err != nil {
		fatal("scan %s: %v", *dir, err)
	}

	cur := &snapshot{
		Schema:     benchSchema,
		Commit:     *commit,
		Go:         runtime.Version(),
		Benchmarks: benches,
	}
	if prev != nil {
		cur.Seq = prev.Seq + 1
	}

	failed := false
	if *check && prev != nil {
		var names []string
		for n := range benches {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			base, ok := prev.Benchmarks[name]
			if !ok {
				fmt.Printf("new benchmark %s (no baseline)\n", name)
				continue
			}
			var metrics []string
			for m := range benches[name] {
				metrics = append(metrics, m)
			}
			sort.Strings(metrics)
			for _, m := range metrics {
				now := benches[name][m]
				was, ok := base[m]
				if !ok || !gated(m, *wall) || was == 0 {
					continue
				}
				delta := (now - was) / was
				worse := delta > *threshold
				if higherBetter(m) {
					worse = delta < -*threshold
				}
				status := "ok"
				if worse {
					status = "REGRESSION"
					failed = true
				}
				fmt.Printf("%-40s %-18s %12.4g -> %12.4g  (%+.1f%%)  %s\n",
					name, m, was, now, 100*delta, status)
			}
		}
	} else if *check {
		fmt.Println("no previous BENCH_*.json snapshot; seeding baseline")
	}

	if *write {
		b, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		out := filepath.Join(*dir, fmt.Sprintf("BENCH_%s.json", *commit))
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal("write %s: %v", out, err)
		}
		fmt.Printf("wrote %s (seq %d, %d benchmarks)\n", out, cur.Seq, len(benches))
	}
	if failed {
		fatal("benchmark regression beyond %.0f%% threshold", 100**threshold)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
