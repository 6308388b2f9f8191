package harness

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// syntheticPoint boots an empty server and runs load on it through
// measure: load owns the counters, so the expected series is exact.
func syntheticPoint(opt Options, load func(p *sim.Proc, ctr *metrics.Counters)) Result {
	srv := newServer(opt, Knobs{})
	srv.Start()
	srv.Sim.Spawn("load", func(p *sim.Proc) { load(p, srv.Ctr) })
	return measure(srv, opt)
}

// steadyRead reads mbps(now) MB/s from the SSD in 100 ms steps that
// straddle the sample boundaries, until the horizon.
func steadyRead(until sim.Time, mbps func(now sim.Time) int64) func(*sim.Proc, *metrics.Counters) {
	return func(p *sim.Proc, ctr *metrics.Counters) {
		p.Sleep(50 * sim.Millisecond)
		for p.Now() < until {
			ctr.SSDReadBytes += mbps(p.Now()) * 1e6 / 10
			p.Sleep(100 * sim.Millisecond)
		}
	}
}

func wantSeries(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// TestMeasureSeriesTileTheWindow: one value per simulated second; a
// 2.5 s window ends in a 0.5 s sample scaled by its own length, so no
// observed byte is lost and no rate diluted.
func TestMeasureSeriesTileTheWindow(t *testing.T) {
	opt := Options{Warmup: sim.Second, Measure: 2500 * sim.Millisecond, Seed: 1}
	r := syntheticPoint(opt, steadyRead(sim.Time(20*sim.Second), func(sim.Time) int64 { return 100 }))
	if r.ElapsedSecs != 2.5 {
		t.Fatalf("ElapsedSecs = %v, want 2.5", r.ElapsedSecs)
	}
	wantSeries(t, "ReadBWSeries", r.ReadBWSeries, []float64{100, 100, 100})
	if len(r.WriteBWSeries) != 3 || len(r.DRAMBWSeries) != 3 {
		t.Fatalf("series lengths differ: write %d, dram %d, want 3", len(r.WriteBWSeries), len(r.DRAMBWSeries))
	}
	// Two whole seconds and the half-second tail carry every byte of the window.
	if got := (r.ReadBWSeries[0] + r.ReadBWSeries[1] + r.ReadBWSeries[2]*0.5) * 1e6; got != float64(r.Delta.SSDReadBytes) {
		t.Fatalf("series carry %.0f bytes, window delta %d", got, r.Delta.SSDReadBytes)
	}
}

// TestMeasureSeriesStartAtWarmup: with a fractional warmup the first
// interval starts at the warmup instant, not at the whole second before
// it — pre-window activity stays out of the series.
func TestMeasureSeriesStartAtWarmup(t *testing.T) {
	opt := Options{Warmup: 1300 * sim.Millisecond, Measure: 2 * sim.Second, Seed: 1}
	r := syntheticPoint(opt, steadyRead(sim.Time(20*sim.Second), func(now sim.Time) int64 {
		if now < sim.Time(opt.Warmup) {
			return 1000 // warmup burst
		}
		return 100
	}))
	wantSeries(t, "ReadBWSeries", r.ReadBWSeries, []float64{100, 100})
}

// TestMeasureSeriesKeepSteppingWhenExtended: MinQueries extension hops
// sample like the base window, and the series still tile ElapsedSecs.
func TestMeasureSeriesKeepSteppingWhenExtended(t *testing.T) {
	opt := Options{Warmup: sim.Second, Measure: 2 * sim.Second, MinQueries: 1, Seed: 1}
	flat := func(sim.Time) int64 { return 100 }
	r := syntheticPoint(opt, func(p *sim.Proc, ctr *metrics.Counters) {
		steadyRead(sim.Time(6200*sim.Millisecond), flat)(p, ctr)
		ctr.QueriesDone++ // 5.25 s into the window: inside the second extension
		steadyRead(sim.Time(30*sim.Second), flat)(p, ctr)
	})
	if r.ElapsedSecs != 6 || r.Delta.QueriesDone != 1 {
		t.Fatalf("ElapsedSecs = %v with %d queries, want two extensions (6 s) ending on the first query",
			r.ElapsedSecs, r.Delta.QueriesDone)
	}
	if len(r.ReadBWSeries) != 6 {
		t.Fatalf("ReadBWSeries has %d samples over a 6 s window: %v", len(r.ReadBWSeries), r.ReadBWSeries)
	}
	var sum float64
	for _, v := range r.ReadBWSeries {
		sum += v
	}
	if sum*1e6 != float64(r.Delta.SSDReadBytes) {
		t.Fatalf("series carry %.0f bytes, window delta %d", sum*1e6, r.Delta.SSDReadBytes)
	}
}

// refSampler is metrics.Sampler as it was before measure took over its
// one job — a proc that snapshots the counters every simulated second
// from Start and flushes a short tail on Stop — kept verbatim (names
// aside) as the oracle for TestMeasureSeriesMatchReferenceSampler.
type refSampler struct {
	C        *metrics.Counters
	Interval sim.Duration
	Samples  []refSample

	sm      *sim.Sim
	prev    metrics.Counters
	lastAt  sim.Time
	stopped bool
}

type refSample struct {
	At    sim.Time
	Dur   sim.Duration
	Delta metrics.Counters
}

func (s *refSampler) Stop() {
	s.stopped = true
	s.flushTail()
}

func (s *refSampler) flushTail() {
	if s.sm == nil || s.sm.Now() <= s.lastAt {
		return
	}
	now := s.sm.Now()
	cur := *s.C
	s.Samples = append(s.Samples, refSample{At: now, Dur: sim.Duration(now - s.lastAt), Delta: cur.Sub(s.prev)})
	s.prev = cur
	s.lastAt = now
}

func (s *refSampler) Start(sm *sim.Sim) {
	s.sm = sm
	s.prev = *s.C
	s.lastAt = sm.Now()
	sm.Spawn("metrics-sampler", func(p *sim.Proc) {
		for !s.stopped {
			p.Sleep(s.Interval)
			if s.stopped {
				break
			}
			cur := *s.C
			s.Samples = append(s.Samples, refSample{At: p.Now(), Dur: s.Interval, Delta: cur.Sub(s.prev)})
			s.prev = cur
			s.lastAt = p.Now()
		}
	})
}

// TestMeasureSeriesMatchReferenceSampler: on a real ASDB point with a
// whole-second warmup and a fractional window, measure's series equal,
// value for value, what the sampler proc recorded on the same run (the
// extraction below is the loop measure used to run over its samples).
func TestMeasureSeriesMatchReferenceSampler(t *testing.T) {
	opt := TestOptions()
	opt.Measure = 2500 * sim.Millisecond
	row := workload(WAsdb)
	d := row.build(2, opt)
	srv := warmServer(d.db, opt, Knobs{})
	srv.Start()
	ref := &refSampler{C: srv.Ctr, Interval: sim.Second}
	ref.Start(srv.Sim)
	srv.AddStopHook(ref.Stop)
	d.drive(srv, row.drivers(opt), driverHorizon(opt))
	r := measure(srv, opt)

	var read, write, dram []float64
	for _, s := range ref.Samples {
		if s.At <= sim.Time(opt.Warmup) {
			continue
		}
		iv := s.Dur.Seconds()
		read = append(read, float64(s.Delta.SSDReadBytes)/1e6/iv)
		write = append(write, float64(s.Delta.SSDWriteBytes)/1e6/iv)
		dram = append(dram, float64(s.Delta.DRAMReadBytes+s.Delta.DRAMWriteBytes)/1e6/iv)
	}
	if len(dram) != 3 || dram[0] <= 0 || write[2] <= 0 {
		t.Fatalf("reference series empty or short: write %v, dram %v", write, dram)
	}
	wantSeries(t, "ReadBWSeries", r.ReadBWSeries, read)
	wantSeries(t, "WriteBWSeries", r.WriteBWSeries, write)
	wantSeries(t, "DRAMBWSeries", r.DRAMBWSeries, dram)
}
