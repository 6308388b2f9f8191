package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// runASDBRecording is RunASDB with the typed logical-record layer on:
// every transaction appends BEGIN/UPDATE/COMMIT/ABORT/CLR records with
// logical undo payloads and the txn registry is maintained. The pool is
// not armed — WAL-before-data is a modeled cost that delays checkpoint
// writes, so it only engages with full ArmRecovery.
func runASDBRecording(sf int, opt Options, k Knobs) Result {
	opt.MinQueries = 0
	row := workload(WAsdb)
	d := row.build(sf, opt)
	srv := warmServer(d.db, opt, k)
	srv.Log.Recording = true
	srv.Start()
	d.drive(srv, row.drivers(opt), driverHorizon(opt))
	r := measure(srv, opt)
	row.throughput(&r)
	return r
}

func emitResultJSONL(t *testing.T, r Result) []byte {
	t.Helper()
	var b bytes.Buffer
	e := NewEmitter(&b)
	EmitResult(e, "recovery_det", "asdb", 100, "", 0, r)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The logical-record layer must be invisible when no crash machinery
// needs it: a crash-free run with typed records and the txn registry
// enabled is byte-identical — through the JSONL emitter — to the plain
// byte-count baseline. Typed commits append the same byte lumps at the
// same instants, zero-byte records share their predecessor's LSN, and
// aborts write the same CLR volume, so the flush timeline is untouched.
func TestRecordingCrashFreeRunMatchesBaseline(t *testing.T) {
	opt := TestOptions()
	base := emitResultJSONL(t, RunASDB(100, opt, Knobs{}))
	armed := emitResultJSONL(t, runASDBRecording(100, opt, Knobs{}))
	if !bytes.Equal(base, armed) {
		i := 0
		for i < len(base) && i < len(armed) && base[i] == armed[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("recording crash-free run diverges from baseline at byte %d:\nbase:  ...%s\nrecording: ...%s",
			i, base[lo:min(i+80, len(base))], armed[lo:min(i+80, len(armed))])
	}
}

// The MTTR sweep must verify and be independent of the sweep
// parallelism: every cell boots an isolated simulation.
func TestRecoverySweepDeterministicAcrossParallel(t *testing.T) {
	opt := TestOptions()
	intervals := RecoveryCkptIntervals[:2]
	bws := []float64{50, 200}
	serial := Recovery(100, opt, intervals, bws)
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	for _, p := range serial.Points {
		if p.Run.MTTRMs() <= 0 {
			t.Fatalf("cell bw=%v ckpt=%v has no recovery time", p.BandwidthMBps, p.CkptInterval)
		}
		if p.Run.Report.Winners == 0 {
			t.Fatalf("cell bw=%v ckpt=%v classified no winners", p.BandwidthMBps, p.CkptInterval)
		}
	}
	opt.Parallel = 4
	parallel := Recovery(100, opt, intervals, bws)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep differs across -parallel:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// Every seeded crash point in the matrix must fire, recover, pass the
// invariant checker, and survive a deliberate re-recovery untouched.
func TestCrashMatrixInvariants(t *testing.T) {
	opt := TestOptions()
	at := opt.Warmup + opt.Measure
	plans := []fault.CrashPlan{
		{Point: fault.CrashMidFlush, Nth: 100},
		{Point: fault.CrashAppendGap, Nth: 200},
		{Point: fault.CrashMidCheckpoint, Nth: 1},
		{Point: fault.CrashDuringUndo, Nth: 1, At: at},
	}
	opt.Parallel = 4
	m := CrashMatrix(100, opt, plans)
	if err := m.Err(); err != nil {
		t.Fatalf("%v\n%s", err, m)
	}
	for _, c := range m.Cells {
		rep := c.Run.Report
		if rep.Losers == 0 || rep.UndoRecords == 0 {
			t.Errorf("crash %v nth=%d exercised no ARIES undo (losers=%d undo=%d)",
				c.Plan.Point, c.Plan.Nth, rep.Losers, rep.UndoRecords)
		}
		if c.Plan.Point == fault.CrashDuringUndo && c.Run.Passes < 2 {
			t.Errorf("during-undo crash never interrupted recovery (passes=%d)", c.Run.Passes)
		}
	}
	serial := opt
	serial.Parallel = 1
	if m2 := CrashMatrix(100, serial, plans); !reflect.DeepEqual(m, m2) {
		t.Fatalf("crash matrix differs across -parallel:\n%s\nvs\n%s", m, m2)
	}
}
