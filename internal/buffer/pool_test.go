package buffer

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

func setup(capacityBytes int64) (*sim.Sim, *Pool, *metrics.Counters) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	dev := iodev.New(iodev.PaperSSD(), ctr)
	p := New(s, dev, ctr, capacityBytes)
	return s, p, ctr
}

func file(id int, pages int64) *storage.File {
	return &storage.File{ID: id, Name: "f", Region: uint64(id) << 40, Pages: pages}
}

func TestProbeMissThenHit(t *testing.T) {
	s, p, ctr := setup(10 << 20)
	f := file(1, 1000)
	p.Register(f)
	s.Spawn("w", func(proc *sim.Proc) {
		if p.Probe(proc, f, 42, false, 500) {
			t.Error("first probe should miss")
		}
		if !p.Probe(proc, f, 42, false, 500) {
			t.Error("second probe should hit")
		}
	})
	s.Run(sim.Time(sim.Second))
	if ctr.BufferMisses != 1 || ctr.BufferHits != 1 {
		t.Fatalf("hits=%d misses=%d", ctr.BufferHits, ctr.BufferMisses)
	}
	if ctr.SSDReadBytes != storage.PageBytes {
		t.Fatalf("read bytes = %d", ctr.SSDReadBytes)
	}
}

func TestScanReadaheadCoalesces(t *testing.T) {
	s, p, ctr := setup(100 << 20)
	f := file(1, 10000)
	p.Register(f)
	var misses int64
	s.Spawn("w", func(proc *sim.Proc) {
		misses = p.Scan(proc, f, 0, 1000, 64)
	})
	s.Run(sim.Time(10 * sim.Second))
	if misses != 1000 {
		t.Fatalf("misses = %d", misses)
	}
	// 1000 pages with 64-page readahead: ~16 I/O requests, not 1000.
	if ctr.SSDReadOps > 20 {
		t.Fatalf("read ops = %d, want coalesced", ctr.SSDReadOps)
	}
	// Rescan hits.
	s.Spawn("w2", func(proc *sim.Proc) {
		if m := p.Scan(proc, f, 0, 1000, 64); m != 0 {
			t.Errorf("rescan missed %d pages", m)
		}
	})
	s.Run(sim.Time(20 * sim.Second))
}

func TestEvictionUnderPressure(t *testing.T) {
	// Capacity 128 pages; scan 1000 pages: residency stays at capacity.
	s, p, _ := setup(128 * storage.PageBytes)
	f := file(1, 10000)
	p.Register(f)
	s.Spawn("w", func(proc *sim.Proc) {
		p.Scan(proc, f, 0, 1000, 32)
	})
	s.Run(sim.Time(100 * sim.Second))
	if p.ResidentPages() > p.CapacityPages() {
		t.Fatalf("resident %d exceeds capacity %d", p.ResidentPages(), p.CapacityPages())
	}
	// Re-scan misses heavily (thrashing).
	var misses int64
	s.Spawn("w2", func(proc *sim.Proc) {
		misses = p.Scan(proc, f, 0, 1000, 32)
	})
	s.Run(sim.Time(200 * sim.Second))
	if misses < 800 {
		t.Fatalf("rescan misses = %d, want thrashing", misses)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s, p, ctr := setup(128 * storage.PageBytes)
	f := file(1, 10000)
	p.Register(f)
	s.Spawn("w", func(proc *sim.Proc) {
		for i := int64(0); i < 300; i++ {
			p.Probe(proc, f, i, true, 0)
		}
	})
	s.Run(sim.Time(100 * sim.Second))
	if ctr.SSDWriteBytes == 0 {
		t.Fatal("dirty evictions produced no writes")
	}
}

func TestSamePageLatchContention(t *testing.T) {
	s, p, ctr := setup(100 << 20)
	f := file(1, 100)
	p.Register(f)
	// Warm the page so waits are PAGELATCH, not PAGEIOLATCH.
	s.Spawn("warm", func(proc *sim.Proc) {
		p.Probe(proc, f, 7, false, 0)
	})
	s.Run(sim.Time(sim.Second))
	for i := 0; i < 10; i++ {
		s.Spawn("w", func(proc *sim.Proc) {
			p.Probe(proc, f, 7, true, 5000) // 5us hold
		})
	}
	s.Run(sim.Time(10 * sim.Second))
	if ctr.WaitNs[metrics.WaitPageLatch] == 0 {
		t.Fatal("no PAGELATCH waits under same-page contention")
	}
}

func TestIOLatchWaitClassification(t *testing.T) {
	s, p, ctr := setup(100 << 20)
	f := file(1, 100)
	p.Register(f)
	// Two procs probe the same cold page; the second waits during the
	// first's I/O and must record PAGEIOLATCH.
	for i := 0; i < 2; i++ {
		s.Spawn("w", func(proc *sim.Proc) {
			p.Probe(proc, f, 9, false, 0)
		})
	}
	s.Run(sim.Time(10 * sim.Second))
	if ctr.WaitNs[metrics.WaitPageIOLatch] == 0 {
		t.Fatal("no PAGEIOLATCH wait recorded")
	}
	if ctr.BufferMisses != 1 || ctr.BufferHits != 1 {
		t.Fatalf("hits=%d misses=%d (second probe should hit after wait)", ctr.BufferHits, ctr.BufferMisses)
	}
}

func TestCheckpointerFlushesDirtyPages(t *testing.T) {
	s, p, ctr := setup(100 << 20)
	f := file(1, 1000)
	p.Register(f)
	p.CheckpointInterval = 100 * sim.Millisecond
	p.StartCheckpointer()
	s.Spawn("w", func(proc *sim.Proc) {
		for i := int64(0); i < 100; i++ {
			p.Probe(proc, f, i, true, 0)
		}
	})
	s.Run(sim.Time(sim.Second))
	p.Stop()
	s.Run(sim.Time(2 * sim.Second))
	if ctr.SSDWriteBytes < 100*storage.PageBytes {
		t.Fatalf("checkpoint wrote %d bytes, want >= %d", ctr.SSDWriteBytes, 100*storage.PageBytes)
	}
}

func TestWarmFileMakesScansHit(t *testing.T) {
	s, p, _ := setup(100 << 20)
	f := file(1, 1000)
	p.Register(f)
	p.WarmFile(f)
	var misses int64
	s.Spawn("w", func(proc *sim.Proc) {
		misses = p.Scan(proc, f, 0, 1000, 64)
	})
	s.Run(sim.Time(10 * sim.Second))
	if misses != 0 {
		t.Fatalf("warm scan missed %d", misses)
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	_, p, _ := setup(1 << 20)
	f := file(1, 10)
	p.Register(f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Register(f)
}

func TestResidencyInvariantUnderRandomWorkloadProperty(t *testing.T) {
	f := func(seed int64, capPages uint8) bool {
		s := sim.New(seed)
		ctr := &metrics.Counters{}
		dev := iodev.New(iodev.PaperSSD(), ctr)
		p := New(s, dev, ctr, (int64(capPages%64)+64)*storage.PageBytes)
		f1 := &storage.File{ID: 1, Name: "a", Region: 1 << 30, Pages: 500}
		f2 := &storage.File{ID: 2, Name: "b", Region: 2 << 30, Pages: 500}
		p.Register(f1)
		p.Register(f2)
		g := sim.NewRNG(seed)
		ok := true
		s.Spawn("w", func(proc *sim.Proc) {
			for i := 0; i < 400; i++ {
				file := f1
				if g.Bool(0.5) {
					file = f2
				}
				if g.Bool(0.3) {
					p.Scan(proc, file, g.Int64n(400), g.Int64n(40)+1, 16)
				} else {
					p.Probe(proc, file, g.Int64n(500), g.Bool(0.4), 200)
				}
				if p.ResidentPages() > p.CapacityPages() {
					ok = false
					return
				}
			}
		})
		s.Run(sim.Time(3600 * sim.Second))
		// Hits + misses account for every access.
		return ok && ctr.BufferHits+ctr.BufferMisses > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Stop must wake the checkpointer out of its between-checkpoint sleep:
// with a huge interval, the proc still exits promptly instead of sleeping
// the interval out.
func TestStopWakesCheckpointerPromptly(t *testing.T) {
	s, p, _ := setup(100 << 20)
	p.CheckpointInterval = 10000 * sim.Second
	p.StartCheckpointer()
	s.Run(sim.Time(sim.Second))
	if n := s.Live(); n != 1 {
		t.Fatalf("%d live procs, want the parked checkpointer", n)
	}
	p.Stop()
	s.Run(sim.Time(2 * sim.Second))
	if n := s.Live(); n != 0 {
		t.Fatalf("checkpointer still live %d after Stop", n)
	}
}

// Fuzzy checkpoints under recovery arming track per-page recLSN/pageLSN
// and refuse to write a page whose latest record is not yet durable
// before its data write (WAL-before-data).
func TestFuzzyCheckpointTracksRecLSN(t *testing.T) {
	s, p, ctr := setup(100 << 20)
	f := file(1, 1000)
	p.Register(f)
	dev := iodev.New(iodev.PaperSSD(), ctr)
	l := wal.New(s, dev, ctr)
	l.Recording = true
	l.Start()
	p.ArmRecovery(l)
	p.CheckpointInterval = 100 * sim.Millisecond
	p.StartCheckpointer()
	s.Spawn("w", func(proc *sim.Proc) {
		l.AppendBatch([]*wal.Record{{Type: wal.RecUpdate, Txn: 1, Bytes: 400}})
		p.Probe(proc, f, 7, true, 0)
	})
	s.Run(sim.Time(sim.Second))
	p.Stop()
	l.Stop()
	s.Run(sim.Time(2 * sim.Second))
	if rec, last := p.dirtyRec[pageKey{1, 7}], p.dirtyLast[pageKey{1, 7}]; rec != 0 || last != 0 {
		t.Fatalf("page still dirty after checkpoint (recLSN=%d pageLSN=%d)", rec, last)
	}
	if got := p.DurablePageLSN(1, 7); got != 400 {
		t.Fatalf("durable page LSN = %d, want 400 (appended LSN at dirtying)", got)
	}
	// The checkpoint's WAL records went through the log.
	var begins, ends int
	for _, r := range l.Records() {
		switch r.Type {
		case wal.RecCkptBegin:
			begins++
		case wal.RecCkptEnd:
			ends++
		}
	}
	if begins == 0 || ends == 0 {
		t.Fatalf("checkpoint records begin=%d end=%d, want both", begins, ends)
	}
}

// A checkpoint round skips files whose dirty count is zero, so the count
// must track the dirty bitmap through every path that sets or clears a
// bit, and a round must still write exactly what a walk of every bitmap
// would: each dirty resident page once, in one completed round.
func TestDirtyCountTracksBitmapProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := sim.New(seed)
		ctr := &metrics.Counters{}
		p := New(s, iodev.New(iodev.PaperSSD(), ctr), ctr, 96*storage.PageBytes)
		var files []*storage.File
		for id := 1; id <= 4; id++ {
			files = append(files, file(id, 500))
			p.Register(files[id-1])
		}
		g := sim.NewRNG(seed)
		// walk is the full walk's view of the pool: dirty resident pages.
		walk := func() (n int64) {
			for _, fs := range p.files {
				for wi := range fs.dirty {
					n += int64(bits.OnesCount64(fs.dirty[wi] & fs.resident[wi]))
				}
			}
			return n
		}
		ok := true
		check := func(op string) {
			for _, fs := range p.files {
				var n int64
				for _, w := range fs.dirty {
					n += int64(bits.OnesCount64(w))
				}
				if fs.nDirty != n {
					t.Errorf("seed %d after %s: file %d nDirty = %d, bitmap holds %d", seed, op, fs.file.ID, fs.nDirty, n)
					ok = false
				}
			}
		}
		s.Spawn("w", func(proc *sim.Proc) {
			for i := 0; i < 600 && ok; i++ {
				// Files 1 and 3 are only read, so every round has clean
				// files between and around the dirty ones.
				fl := files[g.Intn(4)]
				switch k := g.Intn(20); {
				case k == 0:
					want, pages, rounds, wrote := walk(), p.ckptPages, p.ckptRounds, ctr.SSDWriteBytes
					p.checkpoint(proc)
					if p.ckptPages-pages != want || p.ckptRounds-rounds != 1 ||
						ctr.SSDWriteBytes-wrote != want*storage.PageBytes || walk() != 0 {
						t.Errorf("seed %d round %d: wrote %d pages / %d bytes in %d rounds, full walk has %d; %d left dirty",
							seed, p.ckptRounds, p.ckptPages-pages, ctr.SSDWriteBytes-wrote, p.ckptRounds-rounds, want, walk())
						ok = false
					}
					check("checkpoint")
				case k < 5:
					p.Scan(proc, fl, g.Int64n(400), g.Int64n(60)+1, 16) // evicts, dirty pages included
					check("scan")
				default:
					p.Probe(proc, fl, g.Int64n(500), fl.ID%2 == 0 && g.Bool(0.6), 0)
					check("probe")
				}
			}
		})
		s.Run(sim.Time(3600 * sim.Second))
		return ok && p.ckptRounds > 0 && p.evictions > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Probe and Scan past a file's registered extent grow its bitsets first;
// the bits they set must land in the grown bitsets, not in a stale copy.
func TestAccessPastExtentLands(t *testing.T) {
	s, p, _ := setup(100 << 20)
	f := file(1, 10) // registered bitsets cover 128 pages
	p.Register(f)
	s.Spawn("w", func(proc *sim.Proc) {
		p.Probe(proc, f, 5000, true, 0)
		p.Scan(proc, f, 9000, 100, 16)
	})
	s.Run(sim.Time(10 * sim.Second))
	fs := p.byID[1]
	for _, pg := range []int64{5000, 9000, 9063, 9064, 9099} {
		if !fs.bit(fs.resident, pg) || !fs.bit(fs.referenced, pg) {
			t.Errorf("page %d: resident %v referenced %v, want both", pg, fs.bit(fs.resident, pg), fs.bit(fs.referenced, pg))
		}
	}
	if !fs.bit(fs.dirty, 5000) || fs.nDirty != 1 {
		t.Errorf("probed write: dirty %v, nDirty %d", fs.bit(fs.dirty, 5000), fs.nDirty)
	}
	if fs.bit(fs.resident, 9100) || fs.nResident != 101 || p.ResidentPages() != 101 {
		t.Errorf("page 9100 resident %v, nResident %d, pool resident %d; want false, 101, 101",
			fs.bit(fs.resident, 9100), fs.nResident, p.ResidentPages())
	}
}

// refWarmFile is WarmFile's former page-at-a-time loop, the reference
// for the word-at-a-time one.
func refWarmFile(p *Pool, f *storage.File) {
	fs := p.state(f)
	fs.grow(f.Pages + 63)
	for pg := int64(0); pg < f.Pages && p.resident < p.capacityPages; pg++ {
		if !fs.bit(fs.resident, pg) {
			fs.set(fs.resident, pg)
			fs.nResident++
			p.resident++
		}
	}
}

// Warming file after file must leave exactly the reference loop's pool:
// extents off a word boundary, pages already resident, capacity running
// out mid-word, and capacity full before a file starts.
func TestWarmFileMatchesPageLoop(t *testing.T) {
	var midWord, full int
	for seed := int64(1); seed <= 300; seed++ {
		g := sim.NewRNG(seed)
		var pools [2]*Pool
		capBytes := (64 + g.Int64n(400)) * storage.PageBytes
		for i := range pools {
			_, pools[i], _ = setup(capBytes)
		}
		nFiles := 1 + g.Intn(4)
		for id := 1; id <= nFiles; id++ {
			pages := g.Int64n(300)
			hot := g.Float64()
			for _, p := range pools {
				p.Register(file(id, pages))
			}
			for pg := int64(0); pg < pages; pg++ {
				if !g.Bool(hot) {
					continue
				}
				for _, p := range pools {
					if fs := p.byID[id]; p.resident < p.capacityPages && !fs.bit(fs.resident, pg) {
						fs.set(fs.resident, pg)
						fs.nResident++
						p.resident++
					}
				}
			}
		}
		for id := 1; id <= nFiles; id++ {
			got, ref := pools[0], pools[1]
			if got.resident == got.capacityPages {
				full++
			}
			gfs, rfs := got.byID[id], ref.byID[id]
			before := slices.Clone(rfs.resident)
			got.WarmFile(gfs.file)
			refWarmFile(ref, rfs.file)
			// Capacity ran out mid-word if the word holding the first page
			// left cold also gained pages.
			for pg := int64(0); pg < rfs.file.Pages; pg++ {
				if !rfs.bit(rfs.resident, pg) {
					if w := pg / 64; rfs.resident[w] != before[w] {
						midWord++
					}
					break
				}
			}
			if !slices.Equal(gfs.resident, rfs.resident) || !slices.Equal(gfs.referenced, rfs.referenced) ||
				!slices.Equal(gfs.dirty, rfs.dirty) {
				t.Fatalf("seed %d file %d (%d pages): resident %x, reference %x", seed, id, rfs.file.Pages, gfs.resident, rfs.resident)
			}
			if gfs.nResident != rfs.nResident || got.resident != ref.resident {
				t.Fatalf("seed %d file %d: nResident %d pool %d, reference %d pool %d",
					seed, id, gfs.nResident, got.resident, rfs.nResident, ref.resident)
			}
		}
	}
	if midWord == 0 || full == 0 {
		t.Fatalf("%d warms ran out of capacity mid-word, %d started full: the cases must both occur", midWord, full)
	}
}
