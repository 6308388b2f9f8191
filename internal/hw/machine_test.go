package hw

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func newMachine() (*sim.Sim, *Machine, *metrics.Counters) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	m := New(s, PaperSpec(), ctr)
	return s, m, ctr
}

func TestLocateFollowsPaperAllocationOrder(t *testing.T) {
	_, m, _ := newMachine()
	// 0..7: socket 0 thread 0; 8..15: socket 1 thread 0; 16..: thread 1.
	cases := []struct{ id, socket, phys, thread int }{
		{0, 0, 0, 0}, {7, 0, 7, 0}, {8, 1, 0, 0}, {15, 1, 7, 0},
		{16, 0, 0, 1}, {24, 1, 0, 1}, {31, 1, 7, 1},
	}
	for _, c := range cases {
		s, ph, th := m.Locate(c.id)
		if s != c.socket || ph != c.phys || th != c.thread {
			t.Errorf("Locate(%d) = (%d,%d,%d), want (%d,%d,%d)",
				c.id, s, ph, th, c.socket, c.phys, c.thread)
		}
	}
	// Core 0 and core 16 share a physical core.
	if m.Core(0).Phys != m.Core(16).Phys {
		t.Error("core 0 and 16 should be SMT siblings")
	}
	if m.Core(7).Phys == m.Core(8).Phys {
		t.Error("core 7 and 8 should be on different sockets")
	}
}

func TestExecSingleThreadTurboSpeed(t *testing.T) {
	s, m, _ := newMachine()
	var dur sim.Time
	s.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		m.Exec(p, 0, 3_000_000_000, 0) // 3G instructions
		dur = p.Now() - start
	})
	s.Run(sim.Time(10 * sim.Second))
	// 3G instr * 0.7 CPI / 3.0 GHz = 0.7 s.
	want := 0.7
	if got := dur.Seconds(); math.Abs(got-want) > 0.01 {
		t.Fatalf("single-thread exec took %.3fs, want %.3fs", got, want)
	}
}

func TestSMTSiblingsInterfere(t *testing.T) {
	elapsed := func(core1, core2 int) float64 {
		s, m, _ := newMachine()
		var maxEnd sim.Time
		for _, c := range []int{core1, core2} {
			c := c
			s.Spawn("w", func(p *sim.Proc) {
				m.Exec(p, c, 2_000_000_000, 0)
				if p.Now() > maxEnd {
					maxEnd = p.Now()
				}
			})
		}
		s.Run(sim.Time(100 * sim.Second))
		return maxEnd.Seconds()
	}
	separate := elapsed(0, 1)  // two physical cores
	siblings := elapsed(0, 16) // SMT pair
	if siblings < separate*1.6 {
		t.Fatalf("SMT siblings %.3fs vs separate cores %.3fs: expected strong interference", siblings, separate)
	}
	// Compute-bound SMT is modelled as a net loss (the paper's HT
	// detriment), but bounded: no worse than ~2.6x.
	if siblings > separate*2.6 {
		t.Fatalf("SMT siblings %.3fs: interference implausibly strong vs %.3fs", siblings, separate)
	}
}

func TestSMTHelpsStallHeavyWork(t *testing.T) {
	// With high stall fraction, SMT pairs overlap stalls: combined
	// throughput should be much better than for compute-bound pairs.
	run := func(stallNs float64) float64 {
		s, m, _ := newMachine()
		var maxEnd sim.Time
		for _, c := range []int{0, 16} {
			c := c
			s.Spawn("w", func(p *sim.Proc) {
				m.Exec(p, c, 1_000_000_000, stallNs)
				if p.Now() > maxEnd {
					maxEnd = p.Now()
				}
			})
		}
		s.Run(sim.Time(100 * sim.Second))
		return maxEnd.Seconds()
	}
	computeBound := run(0)
	stallHeavy := run(0.5e9) // 0.5s of stalls on top of ~0.23s of compute
	// Compare against the single-thread times to get slowdown factors.
	singleCompute := 1_000_000_000 * 0.7 / 3.0 / 1e9
	singleStall := singleCompute + 0.5
	slowCompute := computeBound / singleCompute
	slowStall := stallHeavy / singleStall
	if slowStall >= slowCompute {
		t.Fatalf("stall-heavy SMT slowdown %.2f should beat compute-bound %.2f", slowStall, slowCompute)
	}
}

func TestTurboDroopWithManyCores(t *testing.T) {
	perWorker := func(n int) float64 {
		s, m, _ := newMachine()
		var last sim.Time
		for i := 0; i < n; i++ {
			core := i
			s.Spawn("w", func(p *sim.Proc) {
				m.Exec(p, core, 1_000_000_000, 0)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		s.Run(sim.Time(100 * sim.Second))
		return last.Seconds()
	}
	one := perWorker(1)
	eight := perWorker(8)
	if eight <= one*1.2 {
		t.Fatalf("8 active cores (%.3fs) should droop below turbo (1 core: %.3fs)", eight, one)
	}
	// At nominal 2.1 GHz the slowdown is bounded by 3.0/2.1.
	if eight > one*(3.0/2.1)*1.05 {
		t.Fatalf("8-core droop too strong: %.3fs vs %.3fs", eight, one)
	}
}

func TestTouchMissesCauseStallAndDRAMTraffic(t *testing.T) {
	s, m, ctr := newMachine()
	base := m.ReserveRegion(1 << 30)
	var coldStall, warmStall float64
	s.Spawn("w", func(p *sim.Proc) {
		coldStall = m.TouchSeq(0, base, 8<<20, false, 8)
		warmStall = m.TouchSeq(0, base, 8<<20, false, 8)
	})
	s.Run(sim.Time(sim.Second))
	if coldStall <= 0 {
		t.Fatal("cold touch produced no stall")
	}
	if warmStall > coldStall*0.2 {
		t.Fatalf("warm touch stall %.0fns vs cold %.0fns: cache not retaining", warmStall, coldStall)
	}
	if ctr.DRAMReadBytes == 0 || ctr.LLCMisses == 0 {
		t.Fatal("counters not charged")
	}
}

func TestSmallCATMaskIncreasesStall(t *testing.T) {
	run := func(maskMB int) float64 {
		s, m, _ := newMachine()
		m.SetCATMask(m.CATMaskForMB(maskMB))
		base := m.ReserveRegion(1 << 30)
		var stall float64
		s.Spawn("w", func(p *sim.Proc) {
			const ws = 12 << 20
			m.TouchSeq(0, base, ws, false, 8)
			for i := 0; i < 3; i++ {
				stall += m.TouchSeq(0, base, ws, false, 8)
			}
		})
		s.Run(sim.Time(sim.Second))
		return stall
	}
	small := run(2)
	large := run(40)
	if small < large*2 {
		t.Fatalf("2MB CAT stall %.0f should far exceed 40MB stall %.0f", small, large)
	}
}

func TestRemoteFractionChargesQPI(t *testing.T) {
	s, m, ctr := newMachine()
	m.SetRemoteFraction(0.5)
	base := m.ReserveRegion(1 << 30)
	s.Spawn("w", func(p *sim.Proc) {
		m.TouchSeq(0, base, 64<<20, false, 8)
	})
	s.Run(sim.Time(sim.Second))
	if ctr.QPIBytes == 0 {
		t.Fatal("remote misses should charge QPI bytes")
	}
	if ctr.QPIBytes > ctr.DRAMReadBytes+ctr.DRAMWriteBytes {
		t.Fatal("QPI bytes exceed total DRAM traffic")
	}
}

func TestCATMaskForMB(t *testing.T) {
	_, m, _ := newMachine()
	cases := []struct {
		mb   int
		want uint64
	}{
		{2, 0x1}, {4, 0x3}, {6, 0x7}, {40, 0xFFFFF}, {0, 0x1}, {100, 0xFFFFF},
	}
	for _, c := range cases {
		if got := m.CATMaskForMB(c.mb); got != c.want {
			t.Errorf("CATMaskForMB(%d) = %#x, want %#x", c.mb, got, c.want)
		}
	}
}

func TestReserveRegionDistinct(t *testing.T) {
	_, m, _ := newMachine()
	a := m.ReserveRegion(100 << 20)
	b := m.ReserveRegion(100 << 20)
	if a == b || b < a+(100<<20) {
		t.Fatalf("regions overlap: %#x %#x", a, b)
	}
}

func TestInstructionCounterAndMPKI(t *testing.T) {
	s, m, ctr := newMachine()
	base := m.ReserveRegion(1 << 30)
	s.Spawn("w", func(p *sim.Proc) {
		stall := m.TouchSeq(0, base, 32<<20, false, 8)
		m.Exec(p, 0, 1_000_000, stall)
	})
	s.Run(sim.Time(sim.Second))
	if ctr.Instructions != 1_000_000 {
		t.Fatalf("instructions = %d", ctr.Instructions)
	}
	if mpki := ctr.MPKI(); mpki <= 0 {
		t.Fatalf("MPKI = %f, want > 0", mpki)
	}
}

// profCalls returns the self-profile's entries and wall per phase.
func profCalls() map[string][2]int64 {
	out := map[string][2]int64{}
	for _, st := range sim.ProfSnapshot() {
		out[st.Name] = [2]int64{st.Calls, st.WallNs}
	}
	return out
}

// The per-call phases are timed on a sample of their entries, but every
// entry is counted, across the flush at the end of each Run too.
func TestProfiledPhasesCountEveryEntry(t *testing.T) {
	const k = 150 // not a multiple of the sampling period
	s, m, _ := newMachine()
	base := m.ReserveRegion(1 << 30)
	done := 0
	s.Spawn("w", func(p *sim.Proc) {
		for ; done < k; done++ {
			stall := m.TouchSeq(0, base+uint64(done)<<12, 4096, false, 8)
			stall += m.TouchRandom(0, base, 1<<30, 4, false, 1, p.RNG().Float64)
			m.Exec(p, 0, 1000, stall)
		}
	})
	sim.EnableProfiling()
	defer sim.DisableProfiling()
	before := profCalls()
	s.Run(sim.Time(50 * sim.Microsecond))
	if done == 0 || done == k {
		t.Fatalf("%d of %d calls in the first Run, want the flush to split them", done, k)
	}
	s.Run(sim.Forever)
	after := profCalls()
	for name, want := range map[string]int64{"hw.exec": k, "hw.charge": 2 * k, "cache.llc": 2 * k} {
		if got := after[name][0] - before[name][0]; got != want {
			t.Errorf("%s: %d entries, want %d", name, got, want)
		}
		if wall := after[name][1] - before[name][1]; wall <= 0 {
			t.Errorf("%s: wall %d ns, want > 0", name, wall)
		}
	}
}
