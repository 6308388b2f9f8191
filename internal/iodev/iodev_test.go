package iodev

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestReadTimeMatchesBandwidth(t *testing.T) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	d := New(PaperSSD(), ctr)
	var dur sim.Duration
	s.Spawn("r", func(p *sim.Proc) {
		dur = d.Read(p, 250<<20) // 250 MiB at 2500 MB/s ~ 0.105s
	})
	s.Run(sim.Time(10 * sim.Second))
	want := float64(250<<20)/(2500e6) + 80e-6
	if got := dur.Seconds(); math.Abs(got-want) > 0.01 {
		t.Fatalf("read took %.4fs, want %.4fs", got, want)
	}
	if ctr.SSDReadBytes != 250<<20 || ctr.SSDReadOps != 1 {
		t.Fatalf("counters: bytes=%d ops=%d", ctr.SSDReadBytes, ctr.SSDReadOps)
	}
}

func TestWritesSlowerThanReads(t *testing.T) {
	s := sim.New(1)
	d := New(PaperSSD(), &metrics.Counters{})
	var rd, wr sim.Duration
	s.Spawn("w", func(p *sim.Proc) {
		rd = d.Read(p, 100<<20)
		wr = d.Write(p, 100<<20)
	})
	s.Run(sim.Time(10 * sim.Second))
	if wr < rd*3/2 {
		t.Fatalf("write %.4fs should be ~2x read %.4fs", wr.Seconds(), rd.Seconds())
	}
}

func TestConcurrentReadsShareBandwidth(t *testing.T) {
	s := sim.New(1)
	d := New(PaperSSD(), &metrics.Counters{})
	var last sim.Time
	for i := 0; i < 4; i++ {
		s.Spawn("r", func(p *sim.Proc) {
			d.Read(p, 100<<20)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	s.Run(sim.Time(10 * sim.Second))
	// 400 MiB total at 2500 MB/s: everything completes in ~0.168s, not 0.042s.
	want := float64(400<<20) / 2500e6
	if got := last.Seconds(); got < want*0.95 {
		t.Fatalf("concurrent reads finished in %.4fs; device exceeded its bandwidth (min %.4fs)", got, want)
	}
}

func TestThrottleLimitsReadBandwidth(t *testing.T) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	d := New(PaperSSD(), ctr)
	th := NewThrottle(100) // 100 MB/s
	d.SetThrottles(th, nil)
	var dur sim.Duration
	s.Spawn("r", func(p *sim.Proc) {
		dur = d.Read(p, 100e6)
	})
	s.Run(sim.Time(100 * sim.Second))
	if got := dur.Seconds(); got < 0.99 {
		t.Fatalf("100MB at 100MB/s limit took %.3fs, want >= ~1s", got)
	}
	th.SetLimit(0) // unlimited again
	var dur2 sim.Duration
	s.Spawn("r2", func(p *sim.Proc) {
		dur2 = d.Read(p, 100e6)
	})
	s.Run(sim.Time(200 * sim.Second))
	if dur2.Seconds() > 0.1 {
		t.Fatalf("unthrottled read took %.3fs", dur2.Seconds())
	}
}

func TestReadAndWriteChannelsIndependent(t *testing.T) {
	s := sim.New(1)
	d := New(PaperSSD(), &metrics.Counters{})
	var rd sim.Duration
	s.Spawn("w", func(p *sim.Proc) {
		d.Write(p, 1<<30) // long write
	})
	s.Spawn("r", func(p *sim.Proc) {
		rd = d.Read(p, 10<<20)
	})
	s.Run(sim.Time(100 * sim.Second))
	if rd.Seconds() > 0.05 {
		t.Fatalf("read delayed by concurrent write: %.4fs", rd.Seconds())
	}
}

func TestZeroByteRequestsFree(t *testing.T) {
	s := sim.New(1)
	d := New(PaperSSD(), &metrics.Counters{})
	var rd, wr sim.Duration
	s.Spawn("z", func(p *sim.Proc) {
		rd = d.Read(p, 0)
		wr = d.Write(p, -5)
	})
	s.Run(sim.Time(sim.Second))
	if rd != 0 || wr != 0 {
		t.Fatalf("zero requests cost time: %v %v", rd, wr)
	}
}

func TestFaultStallSlowsRequests(t *testing.T) {
	s := sim.New(1)
	d := New(PaperSSD(), &metrics.Counters{})
	var clean, stalled sim.Duration
	s.Spawn("r", func(p *sim.Proc) {
		clean = d.Read(p, 1<<20)
		f := NewFault(sim.NewRNG(5))
		f.StallNs = 5e6
		d.SetFault(f)
		stalled = d.Read(p, 1<<20)
	})
	s.Run(sim.Time(10 * sim.Second))
	if stalled < clean+sim.Duration(5e6) {
		t.Fatalf("stall not applied: clean=%v stalled=%v", clean, stalled)
	}
}

func TestFaultErrorsAbsorbedByRead(t *testing.T) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	d := New(PaperSSD(), ctr)
	f := NewFault(sim.NewRNG(5))
	f.ErrProb = 1 // capped internally below 1 so retries terminate
	d.SetFault(f)
	sawErr := false
	s.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if _, err := d.ReadErr(p, 4<<10); err != nil {
				if err != ErrTransient {
					t.Errorf("err = %v, want ErrTransient", err)
				}
				sawErr = true
			}
			// The absorbing variant must always succeed.
			d.Read(p, 4<<10)
		}
	})
	s.Run(sim.Time(60 * sim.Second))
	if !sawErr {
		t.Fatal("ReadErr never failed at ErrProb=1")
	}
	if ctr.FaultIOErrors == 0 {
		t.Fatal("FaultIOErrors not counted")
	}
}
