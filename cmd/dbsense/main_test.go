package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// dbsense runs realMain and returns its exit code and output streams.
func dbsense(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// withTable swaps the experiment table for the test's stub rows.
func withTable(t *testing.T, rows []harness.Experiment) {
	t.Helper()
	saved := harness.Experiments
	harness.Experiments = rows
	t.Cleanup(func() { harness.Experiments = saved })
}

func TestUsageErrorsHaveNoSideEffects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"no arguments", nil, "usage:"},
		{"unknown subcommand", []string{"frobnicate"}, "usage:"},
		{"flat form is gone", []string{"-quick", "fig7"}, "usage:"},
		{"bare experiment name", []string{"fig7"}, "usage:"},
		{"missing experiment", []string{"run"}, "usage:"},
		{"two experiments", []string{"run", "fig7", "fig5"}, "usage:"},
		{"list takes no arguments", []string{"list", "fig7"}, "usage:"},
		{"unknown experiment", []string{"run", "fig99"}, `unknown experiment "fig99"`},
		{"-faults is gone", []string{"run", "recovery", "-faults"}, "flag provided but not defined"},
		// Spelled in two pieces so a grep for a retired flag finds no file.
		{"the row-engine flag is gone", []string{"run", "fig7", "-row" + "exec"}, "flag provided but not defined"},
		{"-emit is gone", []string{"run", "fig7", "-em" + "it", "json"}, "flag provided but not defined"},
		{"-metrics" + "-out is gone", []string{"run", "fig7", "-metrics" + "-out", "m.prom"}, "flag provided but not defined"},
		{"unknown -workload", []string{"run", "fig2cores", "-workload", "tpcx"}, `unknown -workload "tpcx"`},
		{"-workload on a row that ignores it", []string{"run", "fig5", "-workload", "asdb"}, "fig5 ignores -workload"},
		{"-workload on serve", []string{"serve", "-workload", "asdb"}, "serve ignores -workload"},
		{"unknown -schedule", []string{"run", "chaos", "-schedule", "meteor"}, `unknown -schedule "meteor"`},
		{"-trace past the last query", []string{"run", "trace", "-trace", "99"}, "-trace 99 out of range (want 1..22)"},
		{"-trace 0", []string{"run", "trace", "-trace", "0"}, "-trace 0 out of range (want 1..22)"},
		{"-measure 0", []string{"run", "fig5write", "-measure", "0"}, "-measure 0 out of range (want > 0)"},
		{"-measure NaN", []string{"run", "fig5write", "-measure", "NaN"}, "-measure NaN out of range (want > 0)"},
		{"-measure +Inf", []string{"run", "fig5write", "-measure", "+Inf"}, "-measure +Inf out of range (want at most 5.76e+08"},
		{"-measure past the clock", []string{"run", "fig5write", "-measure", "1e10"}, "-measure 1e+10 out of range (want at most 5.76e+08"},
		{"-warmup +Inf", []string{"run", "fig5write", "-warmup", "+Inf"}, "-warmup +Inf out of range (want at most 5.76e+08"},
		{"-warmup negative", []string{"run", "fig5write", "-warmup", "-1"}, "-warmup -1 out of range (want >= 0)"},
		{"-rate 0", []string{"run", "serve", "-rate", "0"}, "-rate 0 out of range (want > 0)"},
		{"-rate negative", []string{"serve", "-rate", "-5"}, "-rate -5 out of range (want > 0)"},
		{"-rate +Inf", []string{"serve", "-rate", "+Inf"}, "-rate +Inf out of range (want at most 1e9"},
		{"-rate NaN", []string{"serve", "-rate", "NaN"}, "-rate NaN out of range (want > 0)"},
		{"-density negative", []string{"run", "fig5write", "-density", "-1"}, "-density -1 out of range (want >= 0)"},
		{"-seed 0", []string{"run", "replication", "-seed", "0"}, "-seed 0 out of range (want nonzero: 0 means the default seed, 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every sink flag is set (right after the subcommand, so the
			// case's own flags win): none may leave a file behind.
			dir := t.TempDir()
			args := tc.args
			if len(args) > 0 {
				args = append([]string{args[0],
					"-o", filepath.Join(dir, "out.jsonl"),
					"-profile", filepath.Join(dir, "prof"),
				}, args[1:]...)
			}
			code, stdout, stderr := dbsense(args...)
			if code != 2 {
				t.Errorf("exit code = %d, want 2", code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want nothing", stdout)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("usage error left %v behind", left[0].Name())
			}
		})
	}
}

func TestListPrintsEveryRowOnce(t *testing.T) {
	code, stdout, _ := dbsense("list")
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(stdout, "\n"), "\n") {
		name, desc, _ := strings.Cut(strings.TrimSpace(line), " ")
		if _, dup := lines[name]; dup {
			t.Errorf("%s listed twice", name)
		}
		lines[name] = strings.TrimSpace(desc)
	}
	for _, x := range harness.Experiments {
		if lines[x.Name] == "" {
			t.Errorf("%s: not listed, or listed without a description", x.Name)
		}
	}
	if lines["all"] == "" {
		t.Error("all: not listed")
	}
	if want := len(harness.Experiments) + 1; len(lines) != want {
		t.Errorf("%d lines, want %d (every row plus all)", len(lines), want)
	}
}

// stubRow prints and emits one marker so a test can see it ran.
func stubRow(name string, inAll bool, fail error) harness.Experiment {
	return harness.Experiment{
		Name: name, Desc: "stub", InAll: inAll,
		Run: func(e *harness.Env) error {
			fmt.Fprintf(e.Out, "ran %s\n", name)
			for i := 0; i < 3; i++ {
				e.Emit.Emit(harness.Record{Record: "point", Experiment: name, X: float64(i + 1)})
			}
			return fail
		},
	}
}

func TestRunAllIsTheInAllRowsInTableOrder(t *testing.T) {
	withTable(t, []harness.Experiment{
		stubRow("a", true, nil), stubRow("b", false, nil), stubRow("c", true, nil),
	})
	code, stdout, stderr := dbsense("run", "all", "-density", "7", "-measure", "3")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr)
	}
	want := "== a (density=7, measure=3s) ==\nran a\n\n== c (density=7, measure=3s) ==\nran c\n\n"
	if stdout != want {
		t.Errorf("stdout = %q, want %q", stdout, want)
	}
}

// -quick supplies density, window and warmup only where the command line
// did not: an explicit flag beside it wins.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	withTable(t, []harness.Experiment{{Name: "a", Desc: "stub", Run: func(e *harness.Env) error {
		fmt.Fprintf(e.Out, "warmup=%gs users=%d\n", e.Opt.Warmup.Seconds(), e.Opt.Users)
		return nil
	}}})
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "a", "-quick"}, "== a (density=120, measure=2s) ==\nwarmup=1s users=32\n\n"},
		{[]string{"run", "a", "-quick", "-density", "7"}, "== a (density=7, measure=2s) ==\nwarmup=1s users=32\n\n"},
		{[]string{"run", "-measure", "5", "-warmup", "0.5", "a", "-quick"}, "== a (density=120, measure=5s) ==\nwarmup=0.5s users=32\n\n"},
		{[]string{"run", "a", "-density", "7"}, "== a (density=7, measure=8s) ==\nwarmup=2s users=0\n\n"},
	} {
		code, stdout, stderr := dbsense(tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit code = %d, stderr %q", tc.args, code, stderr)
		}
		if stdout != tc.want {
			t.Errorf("%v: stdout = %q, want %q", tc.args, stdout, tc.want)
		}
	}
}

// A failing cell must exit 1 only after every sink is complete: the six
// records here are far below the emitter's bufio buffer, so they reach
// the file only if the emitter is closed on the error path.
func TestFailingRowStillFlushesEverySink(t *testing.T) {
	withTable(t, []harness.Experiment{
		stubRow("ok", true, nil),
		stubRow("bad", true, errors.New("cell 7 lost an acked commit")),
		stubRow("after", true, nil),
	})
	dir := t.TempDir()
	out, prof := filepath.Join(dir, "out.jsonl"), filepath.Join(dir, "prof")
	code, stdout, stderr := dbsense("run", "all", "-o", out, "-profile", prof)
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "cell 7 lost an acked commit") {
		t.Errorf("stderr = %q, want the cell error", stderr)
	}
	if strings.Contains(stdout, "ran after") {
		t.Error("rows after the failing one still ran")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(rows) != 3+3 {
		t.Fatalf("JSONL has %d lines, want 3 ok + 3 bad:\n%s", len(rows), got)
	}
	if !strings.HasPrefix(rows[0], `{"record":"point","experiment":"ok",`) || !strings.HasPrefix(rows[5], `{"record":"point","experiment":"bad",`) {
		t.Errorf("JSONL incomplete:\n%s", got)
	}
	if _, err := os.Stat(filepath.Join(prof, "overhead.txt")); err != nil {
		t.Errorf("-profile not finished on the error path: %v", err)
	}
}

// One real row rendered through Env must equal the direct harness call:
// the table adds framing, not behaviour.
func TestRowMatchesDirectHarnessCall(t *testing.T) {
	opt := harness.TestOptions()
	var row harness.Experiment
	for _, x := range harness.Experiments {
		if x.Name == "table2" {
			row = x
		}
	}
	var out bytes.Buffer
	if err := row.Execute(&harness.Env{Opt: opt, Out: &out}); err != nil {
		t.Fatal(err)
	}
	tb := harness.Table2(opt)
	want := fmt.Sprintf("== table2 (density=%d, measure=%.0fs) ==\n%s\n",
		opt.Density, opt.Measure.Seconds(), tb.Render())
	if out.String() != want {
		t.Errorf("row output:\n%s\nwant:\n%s", out.String(), want)
	}
}
