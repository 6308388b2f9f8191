// Command bench is the repository's benchmark: five workloads through
// the simulated client -> net -> serve -> engine -> WAL -> repl stack,
// measured on two clocks. The host clock says what it costs to produce
// the numbers this repository exists to produce; the sim clock says what
// the simulated system delivered. See README.md in this directory.
//
//	go run ./bench                      every workload, untraced
//	go run ./bench -traced              plus the traced pass: per-layer metrics and spans
//	go run ./bench -probes              the layer micro-probes alone
//	go run ./bench -compare A.json B.json
//
// The benchmark driver runs it through run.sh as
// `--workload W --seed N --seconds S --trace 0|1` and reads the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// results is the -json file and the input of -compare.
type results struct {
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Workloads  []report `json:"workloads"`
}

// contractLine is the last line of standard output in driver mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		only     = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "workload seed: the only source of workload randomness")
		reps     = flag.Int("reps", 0, "timed repetitions per workload (default 3 unless -seconds is given)")
		seconds  = flag.Float64("seconds", 0, "driver mode: repeat one workload for this many host seconds and print the result line")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics (driver spelling of -traced)")
		traced   = flag.Bool("traced", false, "also run traced repetitions and the probes; report per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSONL")
		jsonOut  = flag.String("json", "", "write the results to this file")
		probesF  = flag.Bool("probes", false, "run only the layer micro-probes")
		compareF = flag.Bool("compare", false, "compare two -json files given as arguments")
		specF    = flag.Bool("spec", false, "print BENCHMARK.json as the program's tables define it")
	)
	flag.Parse()
	start := time.Now()
	if os.Getenv("GOMAXPROCS") == "" {
		// One simulation is one serial event loop handing off between
		// goroutines; on a single P those handoffs never cross threads,
		// which is both what a saturated `dbsense -parallel N` sweep gives
		// each simulation and far steadier to time.
		runtime.GOMAXPROCS(1)
	}

	if *compareF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *specF {
		out, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	if *probesF {
		printProbes(runProbes())
		return 0
	}

	var run []workload
	for _, w := range workloads {
		if *only == "" || *only == w.Name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
		return 2
	}
	driver := *seconds > 0
	if driver && len(run) != 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds needs -workload")
		return 2
	}
	b := budget{Reps: *reps, Seconds: *seconds, Start: start}
	if !driver && b.Reps <= 0 {
		b.Reps = 3
	}

	var tr *tracer
	var probeNs map[string]float64
	if *traced || *trace == 1 {
		tr = newTracer()
		probeNs = runProbes()
	}

	ref := newReference()
	defer ref.stop()

	res := results{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed,
	}
	fmt.Printf("# %s, %d cpus, GOMAXPROCS %d, seed %d\n", res.GoVersion, res.NumCPU, res.GOMAXPROCS, res.Seed)
	ok := true
	for _, w := range run {
		rp := runWorkload(w, w.Sizes, *seed, b, tr, ref, probeNs)
		if !driver && len(rp.Errors) == 0 {
			// A different seed must give a different simulation, or the
			// seed is not reaching the workload.
			if other := runRep(w, w.Sizes, *seed+1, nil, nil); other.Digest == rp.Digest {
				rp.Errors = append(rp.Errors, fmt.Sprintf("%s: seeds %d and %d give the same digest", w.Name, *seed, *seed+1))
			}
		}
		printReport(rp)
		ok = ok && len(rp.Errors) == 0
		res.Workloads = append(res.Workloads, rp)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if tr != nil && *traceOut != "" {
		if err := tr.writeJSONL(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if driver {
		rp := res.Workloads[0]
		line := contractLine{
			Correct: ok, Attempted: rp.Attempted, Failed: rp.Failed,
			Metrics: map[string]contractValue{},
		}
		from := rp.EndToEnd
		if tr != nil {
			from = rp.PerLayer
		}
		for name, st := range from {
			line.Metrics[name] = contractValue{st.Value, st.Unit}
		}
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printReport(rp report) {
	fmt.Printf("\n%s  seed %d  digest %s  ops %d  attempted %d  failed %d  latency samples %d\n",
		rp.Workload, rp.Seed, rp.Digest, rp.Ops, rp.Attempted, rp.Failed, rp.LatencyN)
	row := func(name string, st stat) {
		fmt.Printf("  %-34s %16.6g %-9s min %-12.6g max %-12.6g n %d\n", name, st.Value, st.Unit, st.Min, st.Max, st.N)
	}
	for _, s := range endToEndSpec {
		row(s.Name, rp.EndToEnd[s.Name])
	}
	for _, name := range []string{"setup_s", "host_wall_us_per_op", "ref_slowdown"} {
		row("as measured: "+name, rp.Measured[name])
	}
	if rp.PerLayer != nil {
		for _, s := range perLayerSpec {
			row(s.Name, rp.PerLayer[s.Name])
		}
	}
	for _, e := range rp.Errors {
		fmt.Printf("  FAILED CHECK: %s\n", e)
	}
}

func printProbes(m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %14.4g\n", k, m[k])
	}
}
