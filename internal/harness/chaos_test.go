package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func chaosOpts() Options {
	opt := TestOptions()
	opt.Measure = 2 * sim.Second
	return opt
}

// TestChaosMatrixSafetyInvariants runs the full matrix and holds it to
// the acked-commit contract: every cell passes the safety checker (no
// lost acks, no double effects), crash cells actually fail over, and
// goodput recovers after the last disruption clears.
func TestChaosMatrixSafetyInvariants(t *testing.T) {
	r := Chaos(1, chaosOpts(), ChaosSpecs(), 8)
	if err := r.Err(); err != nil {
		t.Fatalf("%v\n%s", err, r)
	}
	if len(r.Points) != len(ChaosSpecs()) {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Acked == 0 {
			t.Fatalf("cell %s acked nothing: %+v", p.Spec.Name, p)
		}
		if p.LostAcks != 0 {
			t.Fatalf("cell %s lost %d acked commits", p.Spec.Name, p.LostAcks)
		}
		if p.Spec.Crash {
			if p.FailoverMs <= 0 {
				t.Fatalf("crash cell %s reported no RTO: %+v", p.Spec.Name, p)
			}
			if p.RecoveryMs < 0 {
				t.Fatalf("crash cell %s never recovered goodput: %+v", p.Spec.Name, p)
			}
		}
	}
	// The disruptive cells must actually disturb the client plane
	// somewhere: a matrix where no cell retries or reconnects is not
	// exercising the resilience machinery.
	var retries, reconnects int64
	for _, p := range r.Points {
		retries += p.Client.Retries
		reconnects += p.Client.Reconnects
	}
	if retries == 0 || reconnects == 0 {
		t.Fatalf("matrix too quiet: %d retries, %d reconnects\n%s", retries, reconnects, r)
	}
}

// TestChaosSafetyHoldsAcrossSeeds spot-checks the "any seed" claim on
// the two crash-bearing compound cells with a different seed.
func TestChaosSafetyHoldsAcrossSeeds(t *testing.T) {
	opt := chaosOpts()
	opt.Seed = 7
	specs := []ChaosSpec{
		{Name: "split-burst+crash", Schedule: "split-burst", Crash: true},
		{Name: "flaky+storm+crash", Schedule: "flaky", Crash: true, Storm: true},
	}
	r := Chaos(1, opt, specs, 8)
	if err := r.Err(); err != nil {
		t.Fatalf("seed 7: %v\n%s", err, r)
	}
}

// TestChaosSerialParallelIdentical: cells boot isolated simulations, so
// the emitted JSONL is byte-identical whether the matrix runs serially
// or on 4 workers.
func TestChaosSerialParallelIdentical(t *testing.T) {
	specs := []ChaosSpec{
		{Name: "baseline", Schedule: "none"},
		{Name: "crash", Schedule: "none", Crash: true},
		{Name: "flaky", Schedule: "flaky"},
		{Name: "reset-storm+storm", Schedule: "reset-storm", Storm: true},
	}
	emit := func(parallel int) []byte {
		opt := chaosOpts()
		opt.Parallel = parallel
		opt.Telemetry = true
		var b bytes.Buffer
		e := NewEmitter(&b)
		EmitChaos(e, Chaos(1, opt, specs, 8))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := emit(1)
	par := emit(4)
	if !bytes.Equal(serial, par) {
		t.Fatalf("serial and parallel chaos matrices differ:\nserial %d bytes\nparallel %d bytes", len(serial), len(par))
	}
	if len(serial) == 0 {
		t.Fatal("empty emission")
	}
}

// TestChaosCrashSeriesEndAtTheCrash: Crash stops the primary's telemetry
// registry, so a crash cell's emitted series cover the run up to the crash
// and none of the teardown after it.
func TestChaosCrashSeriesEndAtTheCrash(t *testing.T) {
	opt := chaosOpts()
	opt.Telemetry = true
	r := Chaos(1, opt, []ChaosSpec{{Name: "crash", Schedule: "none", Crash: true}}, 8)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	e := NewEmitter(&b)
	EmitChaos(e, r)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	crashAt := (opt.Warmup + opt.Measure/2).Seconds()
	warm, end := opt.Warmup.Seconds(), (opt.Warmup + opt.Measure).Seconds()
	inWindow := 0
	for _, line := range bytes.Split(bytes.TrimSpace(b.Bytes()), []byte("\n")) {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Record != "series" {
			continue
		}
		if rec.X > crashAt {
			t.Fatalf("series %s has a point at %g s, after the crash at %g s", rec.Metric, rec.X, crashAt)
		}
		if rec.X >= warm && rec.X <= end {
			inWindow++
		}
	}
	if inWindow == 0 {
		t.Fatalf("no series point in the measure window [%g, %g] s", warm, end)
	}
}

// TestChaosArmedButUnfiredMatchesBaseline is the chaos-off identity
// probe at the harness layer: a cell whose injector is armed with a
// schedule that never fires inside the run must produce exactly the
// baseline cell's results — walker procs, fault RNGs, and stop hooks
// may exist, but an unfired timeline cannot perturb the data path.
func TestChaosArmedButUnfiredMatchesBaseline(t *testing.T) {
	opt := chaosOpts()
	base := runChaosCell(1, opt, ChaosSpec{Name: "baseline", Schedule: "none"}, 8)
	armed := runChaosCell(1, opt, ChaosSpec{Name: "armed", Schedule: "none", Events: fault.Schedule{
		{At: 100000 * sim.Second, Dur: sim.Second, Axis: "net-partition", Magnitude: 1},
		{At: 100000 * sim.Second, Dur: sim.Second, Axis: "io-stall", Magnitude: 1e6},
	}}, 8)
	if base.Err != "" || armed.Err != "" {
		t.Fatalf("cells failed: base=%q armed=%q", base.Err, armed.Err)
	}
	// Normalize the fields that legitimately differ: the spec itself, and
	// recovery liveness (the armed cell's "disruption" clears after the
	// run ends, so no post-disruption sample exists by construction).
	armed.Spec, armed.RecoveryMs = base.Spec, base.RecoveryMs
	if !reflect.DeepEqual(base, armed) {
		t.Fatalf("armed-but-unfired cell diverged from baseline:\nbase  %+v\narmed %+v", base, armed)
	}
	if base.Acked == 0 {
		t.Fatal("baseline acked nothing; probe is vacuous")
	}
}
