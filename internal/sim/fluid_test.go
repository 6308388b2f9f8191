package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFluidServerSerializesFIFO(t *testing.T) {
	s := New(1)
	f := NewFluidServer(1000) // 1000 units/s
	var done []Time
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			f.Serve(p, 500) // 0.5s each
			done = append(done, p.Now())
		})
	}
	s.Run(Time(10 * Second))
	if len(done) != 3 {
		t.Fatalf("done = %d", len(done))
	}
	for i, want := range []float64{0.5, 1.0, 1.5} {
		if got := done[i].Seconds(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("request %d done at %.3fs, want %.3fs", i, got, want)
		}
	}
}

func TestFluidServerUnlimited(t *testing.T) {
	s := New(1)
	f := NewFluidServer(0)
	var d Duration
	s.Spawn("w", func(p *Proc) {
		d = f.Serve(p, 1e12)
	})
	s.Run(Time(Second))
	if d != 0 {
		t.Fatalf("unlimited server delayed %v", d)
	}
}

func TestFluidServerRateChange(t *testing.T) {
	s := New(1)
	f := NewFluidServer(100)
	var first, second Time
	s.Spawn("w", func(p *Proc) {
		f.Serve(p, 100) // 1s at 100/s
		first = p.Now()
		f.SetRate(1000)
		f.Serve(p, 100) // 0.1s at 1000/s
		second = p.Now()
	})
	s.Run(Time(10 * Second))
	if math.Abs(first.Seconds()-1.0) > 1e-9 || math.Abs(second.Seconds()-1.1) > 1e-9 {
		t.Fatalf("times = %.3f, %.3f", first.Seconds(), second.Seconds())
	}
}

func TestFluidServerNeverExceedsRateProperty(t *testing.T) {
	g := NewRNG(5)
	f := func(nReq uint8) bool {
		s := New(1)
		rate := 1000.0
		srv := NewFluidServer(rate)
		n := int(nReq%20) + 1
		total := 0.0
		var last Time
		for i := 0; i < n; i++ {
			units := float64(g.Int64n(500) + 1)
			total += units
			s.Spawn("w", func(p *Proc) {
				srv.Serve(p, units)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		s.Run(Time(1000 * Second))
		// Completion of all work cannot beat total/rate.
		return last.Seconds() >= total/rate-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
