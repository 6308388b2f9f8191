// Command dbsense runs the paper's experiments by id and prints
// paper-style tables.
//
// Usage:
//
//	dbsense run <experiment> [flags]   run one experiment, or "all"
//	dbsense serve [flags]              shorthand for "run serve"
//	dbsense list                       list experiments
//
// Flags are accepted before or after the experiment name. The
// experiments are the rows of harness.Experiments; see `dbsense list`
// and EXPERIMENTS.md.
//
// Unknown experiment names, unknown -workload / -schedule values,
// out-of-range -trace / -measure / -warmup / -rate / -density, and
// -workload on an experiment that ignores it are usage errors, rejected
// before any side effect (no output file is created, no sweep starts).
//
// With -o FILE, every result is also written to FILE as structured
// records in JSON Lines, byte-identical across runs at the same seed and
// flags (see EXPERIMENTS.md, "Structured export"). A failing cell exits 1
// only after the records and -profile files are complete.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workload/tpch"
)

// cli is the parsed command line: the harness.Env the flags fill in
// directly, plus the flags that need converting or name an output file.
type cli struct {
	env             harness.Env
	measure, warmup float64 // simulated seconds
	progress        bool

	emitOut, profileDir string
}

func (c *cli) register(fs *flag.FlagSet) {
	env, opt := &c.env, &c.env.Opt
	*opt = harness.DefaultOptions()
	fs.IntVar(&opt.Density, "density", 200, "scale-down density (generated rows per paper scale unit)")
	fs.Float64Var(&c.measure, "measure", 8, "measurement window in simulated seconds")
	fs.Float64Var(&c.warmup, "warmup", 2, "warmup in simulated seconds")
	fs.Int64Var(&opt.Seed, "seed", 1, "simulation seed (nonzero)")
	fs.StringVar((*string)(&env.Workload), "workload", "", "restrict "+strings.Join(workloadRows(), ", ")+" to one workload (tpch|tpce|asdb|htap)")
	fs.BoolVar(&env.Quick, "quick", false, "reduced sweeps and scale factors for a fast pass; also -density 120 -measure 2 -warmup 1 unless given")
	fs.IntVar(&opt.Parallel, "parallel", runtime.NumCPU(), "worker threads for experiment sweeps (results are identical at any setting)")
	fs.BoolVar(&c.progress, "progress", true, "report per-point sweep progress on stderr")
	fs.StringVar(&c.emitOut, "o", "", "also write structured records (JSON Lines, telemetry series included) to this file")
	fs.IntVar(&env.TraceQuery, "trace", 14, "TPC-H query number for the trace experiment")
	fs.Float64Var(&env.Rate, "rate", 16, "serve/chaos: mean connection arrivals per second")
	fs.BoolVar(&env.Storm, "storm", false, "serve: drive a 6x arrival burst through the middle of the window")
	fs.StringVar(&env.Schedule, "schedule", "", "chaos: restrict the matrix to cells using one named fault schedule")
	fs.StringVar(&c.profileDir, "profile", "", "write simulator self-profiles (pprof CPU/heap + per-subsystem overhead report) to this directory")
}

// workloadRows names the experiments that honour -workload.
func workloadRows() []string {
	var names []string
	for _, x := range harness.Experiments {
		if x.UsesWorkload {
			names = append(names, x.Name)
		}
	}
	return names
}

// maxWindow bounds -measure and -warmup in seconds. The simulated clock
// counts int64 nanoseconds and the harness runs clients to warmup +
// 10 × measure before it drains, so each gets a sixteenth of the range;
// +Inf fails the same comparison.
const maxWindow = float64(math.MaxInt64/16) / float64(sim.Second)

var wantWindow = fmt.Sprintf("at most %.3g: the simulated clock is int64 ns", maxWindow)

// finishOptions derives the Options fields that depend on more than one
// flag.
func (c *cli) finishOptions(stderr io.Writer) {
	o := &c.env.Opt
	o.Measure = sim.DurationOf(c.measure)
	o.Warmup = sim.DurationOf(c.warmup)
	// Structured output carries the telemetry series, so -o arms the
	// registry; plain table runs stay bit-identical to a telemetry-free
	// build.
	o.Telemetry = c.emitOut != ""
	if c.progress {
		// One stderr status line per sweep, overwritten as points complete
		// and finished when the sweep does.
		o.Progress = func(done, total int, elapsed time.Duration) {
			fmt.Fprintf(stderr, "\r  sweep %d/%d points · %.1fs", done, total, elapsed.Seconds())
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
}

// applyQuick gives -quick its smaller run: 32 users, and density 120,
// a 2 s window and 1 s warmup for whichever of those flags the command
// line did not set itself.
func (c *cli) applyQuick(fs *flag.FlagSet) {
	if !c.env.Quick {
		return
	}
	c.env.Opt.Users = 32
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["density"] {
		c.env.Opt.Density = 120
	}
	if !set["measure"] {
		c.measure = 2
	}
	if !set["warmup"] {
		c.warmup = 1
	}
}

// startProfile arms simulator self-profiling and begins the host CPU
// profile, before any experiment so the whole run is covered. The
// returned finish stops the CPU profile, writes the heap profile, and
// renders the per-subsystem wall-ms-per-sim-ms overhead report to stdout
// and dir/overhead.txt.
func startProfile(dir string, stdout io.Writer) (finish func() error, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	sim.EnableProfiling()
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(hf); err != nil {
			hf.Close()
			return err
		}
		if err := hf.Close(); err != nil {
			return err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		report := sim.ProfReport() +
			fmt.Sprintf("host allocations: %d objects, %.1f MB cumulative\n",
				ms.Mallocs, float64(ms.TotalAlloc)/1e6)
		if err := os.WriteFile(filepath.Join(dir, "overhead.txt"), []byte(report), 0o644); err != nil {
			return err
		}
		_, err = io.WriteString(stdout, report)
		return err
	}, nil
}

// execute runs the rows with every requested sink open, then finishes
// the profile and flushes the records whether or not a row failed, so a
// failing cell still leaves complete output behind.
func (c *cli) execute(rows []harness.Experiment, stdout, stderr io.Writer) (err error) {
	env := &c.env
	env.Out = stdout
	c.finishOptions(stderr)
	if path := c.emitOut; path != "" {
		f, ferr := os.Create(path)
		if ferr != nil {
			return ferr
		}
		env.Emit = harness.NewEmitter(f)
		defer func() {
			if cerr := errors.Join(env.Emit.Close(), f.Close()); cerr != nil {
				err = errors.Join(err, cerr)
				return
			}
			fmt.Fprintf(stderr, "structured records written to %s\n", path)
		}()
	}
	if c.profileDir != "" {
		finish, perr := startProfile(c.profileDir, stdout)
		if perr != nil {
			return perr
		}
		defer func() { err = errors.Join(err, finish()) }()
	}
	for _, x := range rows {
		if err = x.Execute(env); err != nil {
			break
		}
	}
	return err
}

// selectRows resolves an experiment name against the table: one row, or
// the InAll rows in table order for "all".
func selectRows(name string) []harness.Experiment {
	var rows []harness.Experiment
	for _, x := range harness.Experiments {
		if x.Name == name || (name == "all" && x.InAll) {
			rows = append(rows, x)
		}
	}
	return rows
}

func names(rows []harness.Experiment) []string {
	out := make([]string, len(rows))
	for i, x := range rows {
		out[i] = x.Name
	}
	return out
}

func printList(w io.Writer) {
	for _, x := range harness.Experiments {
		fmt.Fprintf(w, "  %-11s %s\n", x.Name, x.Desc)
	}
	fmt.Fprintf(w, "  %-11s in sequence: %s\n", "all", strings.Join(names(selectRows("all")), " "))
}

func usage(stderr io.Writer) int {
	fmt.Fprintf(stderr, `usage:
  dbsense run <experiment> [flags]   run one experiment, or "all"
  dbsense serve [flags]              shorthand for "run serve": one serving cell at -rate conn/s
  dbsense list                       list experiments
experiments: %s|all
`, strings.Join(names(harness.Experiments), "|"))
	return 2
}

// parseFlags parses a subcommand's arguments, accepting flags both
// before and after positional arguments (the standard flag package
// stops at the first positional), and returns the positionals in
// order.
func parseFlags(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its process state passed in: it returns the exit
// code (2 for usage errors, 1 when a sink or an experiment cell failed).
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "serve" {
		args = append([]string{"run"}, args...)
	}
	if len(args) == 0 || (args[0] != "run" && args[0] != "list") {
		return usage(stderr)
	}
	var c cli
	fs := flag.NewFlagSet("dbsense", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c.register(fs)
	pos, err := parseFlags(fs, args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	c.applyQuick(fs)
	if args[0] == "list" {
		if len(pos) != 0 {
			return usage(stderr)
		}
		printList(stdout)
		return 0
	}
	if len(pos) != 1 {
		return usage(stderr)
	}
	// Validate everything before any side effect: a usage error must not
	// create the output file or start the default sweep.
	rows := selectRows(pos[0])
	if len(rows) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q\n", pos[0])
		return usage(stderr)
	}
	if w := c.env.Workload; w != "" {
		if harness.PaperSFs(w) == nil {
			fmt.Fprintf(stderr, "unknown -workload %q (want tpch, tpce, asdb, or htap)\n", w)
			return 2
		}
		if !slices.ContainsFunc(rows, func(x harness.Experiment) bool { return x.UsesWorkload }) {
			fmt.Fprintf(stderr, "%s ignores -workload (it applies to %s)\n", pos[0], strings.Join(workloadRows(), ", "))
			return 2
		}
	}
	if sched := c.env.Schedule; sched != "" {
		if known := fault.ScheduleNames(); !slices.Contains(known, sched) {
			fmt.Fprintf(stderr, "unknown -schedule %q (want one of %v)\n", sched, known)
			return 2
		}
	}
	for _, f := range []struct {
		ok   bool
		flag string
		val  any
		want string
	}{
		{c.env.TraceQuery >= 1 && c.env.TraceQuery <= tpch.NumQueries, "-trace", c.env.TraceQuery, fmt.Sprintf("1..%d", tpch.NumQueries)},
		{c.measure > 0, "-measure", c.measure, "> 0"}, // NaN stops here, as for -warmup and -rate
		{c.measure <= maxWindow, "-measure", c.measure, wantWindow},
		{c.warmup >= 0, "-warmup", c.warmup, ">= 0"},
		{c.warmup <= maxWindow, "-warmup", c.warmup, wantWindow},
		{c.env.Rate > 0, "-rate", c.env.Rate, "> 0"},
		// A mean arrival gap under the clock's 1 ns tick rounds to no gap
		// at all, and the open-loop plan never reaches its horizon.
		{c.env.Rate <= 1e9, "-rate", c.env.Rate, "at most 1e9: arrival gaps are whole nanoseconds"},
		{c.env.Opt.Density >= 0, "-density", c.env.Opt.Density, ">= 0"},
		// The engine runs seed 0 as seed 1; fault jitter and client backoff would draw from 0.
		{c.env.Opt.Seed != 0, "-seed", c.env.Opt.Seed, "nonzero: 0 means the default seed, 1"},
	} {
		if !f.ok {
			fmt.Fprintf(stderr, "%s %v out of range (want %s)\n", f.flag, f.val, f.want)
			return 2
		}
	}
	if err := c.execute(rows, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
