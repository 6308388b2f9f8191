package harness

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func servingOpts() Options {
	opt := TestOptions()
	opt.Measure = 2 * sim.Second
	return opt
}

// TestServingSweepShedsPastSaturation checks the sweep's core claim:
// offered load rises monotonically across the grid, goodput saturates,
// and past saturation admission control sheds instead of letting the
// served tail collapse.
func TestServingSweepShedsPastSaturation(t *testing.T) {
	r := Serving(2000, servingOpts(), ServingRates)
	if len(r.Points) != len(ServingRates) {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i, p := range r.Points {
		if p.OfferedRPS <= 0 || p.Accepted == 0 {
			t.Fatalf("point %d inert: %+v", i, p)
		}
		if i > 0 && p.OfferedRPS <= r.Points[i-1].OfferedRPS {
			t.Fatalf("offered load not increasing at %d: %v then %v",
				i, r.Points[i-1].OfferedRPS, p.OfferedRPS)
		}
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.ShedRate != 0 {
		t.Fatalf("shedding at the lightest load: %+v", first)
	}
	if last.ShedRate == 0 {
		t.Fatalf("no shedding at %.0f offered rps: %+v", last.OfferedRPS, last)
	}
	if last.GoodputRPS <= 0 {
		t.Fatalf("goodput collapsed past saturation: %+v", last)
	}
	// Goodput retention: the overloaded point keeps a meaningful share of
	// the saturated goodput instead of spiraling down.
	peak := 0.0
	for _, p := range r.Points {
		if p.GoodputRPS > peak {
			peak = p.GoodputRPS
		}
	}
	if last.GoodputRPS < peak/3 {
		t.Fatalf("goodput retention %f of peak %f", last.GoodputRPS, peak)
	}
	if r.Storm.ShedRate == 0 || r.Storm.GoodputRPS <= 0 {
		t.Fatalf("storm cell: %+v", r.Storm)
	}
}

// TestServingSerialParallelIdentical is the sweep-isolation guarantee
// applied to the serving experiment: the emitted JSONL is byte-identical
// whether points run serially or on 4 workers.
func TestServingSerialParallelIdentical(t *testing.T) {
	emit := func(parallel int) []byte {
		opt := servingOpts()
		opt.Parallel = parallel
		opt.Telemetry = true
		var b bytes.Buffer
		e := NewEmitter(&b)
		EmitServing(e, Serving(2000, opt, []float64{4, 16, 64}))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := emit(1)
	par := emit(4)
	if !bytes.Equal(serial, par) {
		t.Fatalf("serial and parallel serving sweeps differ:\nserial %d bytes\nparallel %d bytes", len(serial), len(par))
	}
	if len(serial) == 0 {
		t.Fatal("empty emission")
	}
}

// TestServingDegradedEngagesUnderStorm checks the degrade-before-shed
// middle tier is reachable: under the storm cell's burst, some analytical
// requests run in degraded posture.
func TestServingDegradedEngagesUnderStorm(t *testing.T) {
	r := Serving(2000, servingOpts(), []float64{16, 64})
	total := r.Storm.Degraded
	for _, p := range r.Points {
		total += p.Degraded
	}
	if total == 0 {
		t.Fatalf("degraded posture never engaged across the sweep")
	}
}
