package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.txt from this build's output")

const ledgerPath = "testdata/ledger.txt"

// ledgerMustEmit is, per row, what the JSONL has to match for the digest
// to pin the row's headline measurement rather than an empty sweep: MAXDOP
// 1 slowed some SF 300 query, a 2 % grant slowed some query, the fault
// walker injected something, the chaos matrix reported its safety metrics.
var ledgerMustEmit = map[string][]string{
	"fig4":       {`"record":"cdf_point"`},
	"fig6":       {`sf300","text":"query=Q[0-9]+; dop1=0\.`},
	"fig8":       {`M=2%=0\.`},
	"serving":    {`"metric":"shed_rate"`},
	"resilience": {`"faults_injected":[1-9]`},
	"chaos":      {`"metric":"lost_acks"`, `"metric":"failover_ms"`},
}

// ledgerFig6 stands in for fig6's Run: the full row's cost follows nominal
// size, not density (22 queries at six DOPs at SF 10..300 is ~28 s at any
// density), so the ledger renders it the way runFig6 does on a reduced
// grid, SF 10 and SF 300 at MAXDOP 1, 8 and 32. It copies runFig6 rather
// than parameterising it so that this file still drops onto earlier
// commits.
func ledgerFig6(e *Env) error {
	dops := []int{1, 8, 32}
	headers := []string{"query"}
	for _, dop := range dops {
		headers = append(headers, fmt.Sprintf("dop%d", dop))
	}
	for _, sf := range []int{10, 300} {
		res := Fig6(sf, e.Opt, dops)
		t := queryRows(headers, func(q, col int) float64 { return res.Speedup(q, dops[col]) })
		e.printf("-- TPC-H SF %d: speedup relative to MAXDOP=32 --\n%s", sf, t.Render())
		EmitTable(e.Emit, "fig6", fmt.Sprintf("sf%d", sf), t)
	}
	return nil
}

// TestLedger is the identity ledger: every experiment row runs through
// Experiment.Execute at one tiny fixed config (fig6 with ledgerFig6 as its
// Run), and sha256(stdout ‖ JSONL) must equal the digest committed in
// testdata/ledger.txt. A byte-identical PR passes it untouched; a PR that
// means to move a number regenerates the table (go test ./internal/harness
// -run TestLedger -update, the package first) and the diff is its
// declaration of what moved.
//
// Sweeps fan out over GOMAXPROCS workers, so `go test -run TestLedger
// -cpu 1,4` checks the serial and the parallel pass against the same
// digests.
//
// It reaches the rows only through Execute and Env (and fig6 through Fig6
// and its renderers), so the file compiles against any commit that has the
// experiment table.
func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the ledger runs every row; skipped under -short")
	}
	opt := TestOptions()
	opt.Density = 30
	opt.Warmup = sim.Second / 2
	opt.Measure = sim.Second
	opt.Telemetry = true
	opt.Parallel = 0

	want := map[string]string{}
	if !*updateLedger {
		b, err := os.ReadFile(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			name, sum, _ := strings.Cut(line, " ")
			want[name] = sum
		}
	}
	var table strings.Builder
	rows, ran := 0, 0 // ran < rows when -run selects some subtests only
	for _, x := range Experiments {
		if x.Name == "fig6" {
			x.Run = ledgerFig6
		}
		rows++
		t.Run(x.Name, func(t *testing.T) {
			ran++
			var stdout, jsonl bytes.Buffer
			em, err := NewEmitter(&jsonl, "json")
			if err != nil {
				t.Fatal(err)
			}
			env := &Env{Opt: opt, Quick: true, Out: &stdout, Emit: em, TraceQuery: 14, Rate: 16}
			if x.UsesWorkload {
				env.Workload = WAsdb
			}
			if err := x.Execute(env); err != nil {
				t.Fatal(err)
			}
			if err := em.Close(); err != nil {
				t.Fatal(err)
			}
			if stdout.Len() == 0 || jsonl.Len() == 0 {
				t.Fatalf("%d stdout bytes, %d JSONL bytes: the digest would pin nothing", stdout.Len(), jsonl.Len())
			}
			for _, must := range ledgerMustEmit[x.Name] {
				if !regexp.MustCompile(must).Match(jsonl.Bytes()) {
					t.Errorf("no JSONL record matches %s: the digest would pin a vacuous run", must)
				}
			}
			h := sha256.New()
			h.Write(stdout.Bytes())
			h.Write(jsonl.Bytes())
			got := fmt.Sprintf("%x", h.Sum(nil))
			fmt.Fprintf(&table, "%s %s\n", x.Name, got)
			if !*updateLedger && got != want[x.Name] {
				t.Errorf("digest %s, ledger has %q: output moved (or the row is new); "+
					"if intended, regenerate with -update and declare it", got, want[x.Name])
			}
			delete(want, x.Name)
		})
	}
	if ran < rows {
		return
	}
	if *updateLedger {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		t.Errorf("ledger lists %s, which no longer runs", name)
	}
}
