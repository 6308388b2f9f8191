// Package buffer implements the engine's buffer pool: the nominal-page
// cache between the row/column stores and the NVMe device.
//
// Residency is tracked with per-file bitsets (resident / referenced /
// dirty) and a CLOCK sweep for eviction, which keeps bookkeeping at a few
// bits per nominal page — essential when a "96 GB" database has twelve
// million nominal pages. Page latching is modelled with a striped latch
// table: concurrent point accesses to the same page (or, rarely, to a
// colliding stripe) serialize, producing the PAGELATCH waits of the
// paper's Table 3; latches held across device reads produce PAGEIOLATCH
// waits.
package buffer

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// latchStripes is the size of the page-latch hash table. Collisions
// between distinct pages are possible but rare (as with real latch
// partitioning); same-page contention always collides, which is the
// behaviour under study.
const latchStripes = 1024

type latch struct {
	held bool
	inIO bool
	q    sim.WaitQueue
}

type fileState struct {
	file       *storage.File
	resident   []uint64
	referenced []uint64
	dirty      []uint64
	nResident  int64
	nDirty     int64 // set bits in dirty: lets a checkpoint round skip clean files
}

// grow extends the three bitsets to cover pageNo. It may reallocate them,
// so callers grow before taking a bitset to set bits in.
func (fs *fileState) grow(pageNo int64) {
	if n := int(pageNo/64) + 1 - len(fs.resident); n > 0 {
		fs.resident = append(fs.resident, make([]uint64, n)...)
		fs.referenced = append(fs.referenced, make([]uint64, n)...)
		fs.dirty = append(fs.dirty, make([]uint64, n)...)
	}
}

func (fs *fileState) bit(bits []uint64, pageNo int64) bool {
	w := pageNo / 64
	if w >= int64(len(bits)) {
		return false
	}
	return bits[w]&(1<<uint(pageNo%64)) != 0
}

// set sets pageNo's bit in bits, one of fs's bitsets. The caller must
// already have grown fs to cover pageNo: a grow here could reallocate
// the bitset and the write would land in the caller's stale copy.
func (fs *fileState) set(bits []uint64, pageNo int64) {
	bits[pageNo/64] |= 1 << uint(pageNo%64)
}

// setRange sets bits [from, to) of a bitset already grown to cover them,
// a word at a time.
func setRange(bits []uint64, from, to int64) {
	for from < to {
		off := uint(from % 64)
		n := min(to-from, 64-int64(off))
		bits[from/64] |= ^uint64(0) >> (64 - uint(n)) << off
		from += n
	}
}

// Pool is a buffer pool bound to one simulation and device.
type Pool struct {
	sm  *sim.Sim
	dev *iodev.Device
	ctr *metrics.Counters

	basePages     int64 // configured capacity, before fault-injected shrinks
	capacityPages int64
	resident      int64

	files   []*fileState
	byID    map[int]*fileState
	latches [latchStripes]latch

	// CLOCK hand.
	handFile int
	handWord int

	// Checkpoint pacing.
	CheckpointInterval sim.Duration

	// CkptChunkHook, when set, runs after each checkpoint chunk write —
	// the seeded mid-checkpoint crash point (between the CKPT_BEGIN and
	// CKPT_END records).
	CkptChunkHook func()

	// Crash-recovery bookkeeping (armed runs only). recLSN is captured at
	// first-dirty, pageLSN at last-dirty (both as the append position at
	// modification time — the log record for the write joins the stream
	// at commit, so these are conservative lower bounds); durable is the
	// LSN the on-device page image reflects, advanced at writeback.
	armed     bool
	log       *wal.Log
	dirtyRec  map[pageKey]int64 // recLSN per dirty page
	dirtyLast map[pageKey]int64 // pageLSN per dirty page
	durable   map[pageKey]int64 // LSN of the durable page image

	// Telemetry counters, always maintained (plain adds on paths that
	// already mutate pool state, so they cannot perturb simulation).
	evictions  int64 // pages evicted by the CLOCK hand
	ckptPages  int64 // pages written back by checkpoint rounds
	ckptRounds int64 // completed checkpoint rounds

	ckptQ   sim.WaitQueue // checkpointer parks here between rounds
	stopped bool
}

// Evictions returns the cumulative count of pages evicted by CLOCK.
func (p *Pool) Evictions() int64 { return p.evictions }

// CheckpointPages returns the cumulative pages written by checkpoints —
// the checkpoint-progress counter.
func (p *Pool) CheckpointPages() int64 { return p.ckptPages }

// pageKey names a page globally for the recovery maps.
type pageKey struct {
	file int
	page int64
}

// New creates a pool with the given capacity in bytes.
func New(sm *sim.Sim, dev *iodev.Device, ctr *metrics.Counters, capacityBytes int64) *Pool {
	p := &Pool{
		sm:                 sm,
		dev:                dev,
		ctr:                ctr,
		capacityPages:      capacityBytes / storage.PageBytes,
		byID:               make(map[int]*fileState),
		CheckpointInterval: 2 * sim.Second,
	}
	if p.capacityPages < 64 {
		p.capacityPages = 64
	}
	p.basePages = p.capacityPages
	return p
}

// SetCapacityFrac shrinks (or restores) the pool to frac of its configured
// capacity, evicting immediately to fit — the model for a fault-injected
// memory-pressure spike, where an external consumer steals buffer memory.
// frac is clamped to (0, 1]; the floor of 64 pages still applies.
func (p *Pool) SetCapacityFrac(frac float64) {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	pages := int64(float64(p.basePages) * frac)
	if pages < 64 {
		pages = 64
	}
	p.capacityPages = pages
	p.makeRoom(0)
}

// ioAttempts bounds the buffer pool's retries of a transiently failing
// device read before giving up and depositing the error on the proc.
const ioAttempts = 3

// readPages reads bytes from the device with bounded retry. On success it
// returns true; after ioAttempts transient failures it records the error
// on the proc (sim.Proc.SetFail) and returns false, letting the query
// coordinator surface a typed IO error.
func (p *Pool) readPages(proc *sim.Proc, bytes int64) bool {
	var lastErr error
	for i := 0; i < ioAttempts; i++ {
		_, err := p.dev.ReadErr(proc, bytes)
		if err == nil {
			return true
		}
		lastErr = err
		if i < ioAttempts-1 {
			p.ctr.IORetries++
		}
	}
	proc.SetFail(lastErr)
	return false
}

// Register adds a file to the pool. Files must be registered before use.
func (p *Pool) Register(f *storage.File) {
	if _, dup := p.byID[f.ID]; dup {
		panic(fmt.Sprintf("buffer: file %d (%s) registered twice", f.ID, f.Name))
	}
	fs := &fileState{file: f}
	fs.grow(f.Pages + 63)
	p.files = append(p.files, fs)
	p.byID[f.ID] = fs
}

// CapacityPages returns the pool capacity in pages.
func (p *Pool) CapacityPages() int64 { return p.capacityPages }

// ResidentPages returns the current number of resident pages.
func (p *Pool) ResidentPages() int64 { return p.resident }

func (p *Pool) state(f *storage.File) *fileState {
	fs, ok := p.byID[f.ID]
	if !ok {
		panic(fmt.Sprintf("buffer: file %d (%s) not registered", f.ID, f.Name))
	}
	return fs
}

// stripeFor hashes (file, page) onto a latch stripe.
func (p *Pool) stripeFor(fileID int, pageNo int64) *latch {
	h := uint64(fileID)*0x9e3779b97f4a7c15 + uint64(pageNo)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return &p.latches[h%latchStripes]
}

func (p *Pool) acquireLatch(proc *sim.Proc, l *latch) {
	for l.held {
		wasIO := l.inIO
		start := proc.Now()
		l.q.Wait(proc)
		wait := sim.Duration(proc.Now() - start)
		if wasIO {
			metrics.ChargeWait(proc, p.ctr, metrics.WaitPageIOLatch, wait)
		} else {
			metrics.ChargeWait(proc, p.ctr, metrics.WaitPageLatch, wait)
		}
	}
	l.held = true
}

func (p *Pool) releaseLatch(l *latch) {
	l.held = false
	l.inIO = false
	l.q.WakeOne(p.sm)
}

// Probe performs a point access to one page with latch semantics: it
// waits for the page latch, performs device I/O if the page is not
// resident (PAGEIOLATCH for waiters), and marks the page
// referenced/dirty. Writers hold the latch exclusively for holdNs (the
// in-buffer row modification), which is what creates PAGELATCH
// contention on append hotspots; readers take a shared latch, so they
// only ever wait behind writers or in-flight I/O, never each other —
// and release immediately (their hold would not block anything).
// It reports whether the access was a buffer hit.
func (p *Pool) Probe(proc *sim.Proc, f *storage.File, pageNo int64, write bool, holdNs float64) bool {
	fs := p.state(f)
	fs.grow(pageNo)
	l := p.stripeFor(f.ID, pageNo)
	p.acquireLatch(proc, l)

	hit := fs.bit(fs.resident, pageNo)
	stmt := metrics.StmtOf(proc)
	if hit {
		p.ctr.BufferHits++
		if stmt != nil {
			stmt.BufferHits++
		}
	} else {
		p.ctr.BufferMisses++
		if stmt != nil {
			stmt.BufferMisses++
		}
		l.inIO = true
		ok := p.readPages(proc, storage.PageBytes)
		l.inIO = false
		if !ok {
			// The read never landed: the page is not resident, and the
			// failure is parked on the proc for the coordinator to collect.
			p.releaseLatch(l)
			return false
		}
		p.makeRoom(1)
		fs.set(fs.resident, pageNo)
		fs.nResident++
		p.resident++
	}
	fs.set(fs.referenced, pageNo)
	if write {
		if !fs.bit(fs.dirty, pageNo) {
			fs.set(fs.dirty, pageNo)
			fs.nDirty++
		}
		if p.armed {
			p.markDirty(pageKey{f.ID, pageNo})
		}
		if holdNs > 0 {
			proc.Sleep(sim.Duration(holdNs))
		}
	}
	p.releaseLatch(l)
	return hit
}

// Scan performs a bulk sequential access of nPages starting at startPage,
// reading missing runs with readahead-sized device requests. It returns
// the number of pages that missed. Bulk scans skip latch simulation (real
// scans latch each page briefly but essentially never contend).
func (p *Pool) Scan(proc *sim.Proc, f *storage.File, startPage, nPages, readaheadPages int64) int64 {
	if nPages <= 0 {
		return 0
	}
	if readaheadPages < 1 {
		readaheadPages = 1
	}
	fs := p.state(f)
	fs.grow(startPage + nPages)
	var missTotal, hitTotal int64
	stmt := metrics.StmtOf(proc)
	defer func() {
		if stmt != nil {
			stmt.BufferHits += hitTotal
			stmt.BufferMisses += missTotal
		}
	}()
	page := startPage
	end := startPage + nPages
	for page < end {
		// Collect the next run of missing pages (up to readahead).
		for page < end && fs.bit(fs.resident, page) {
			fs.set(fs.referenced, page)
			p.ctr.BufferHits++
			hitTotal++
			page++
			// Word-level fast path: whole 64-page blocks that are fully
			// resident are marked referenced and skipped in one step.
			for page%64 == 0 && end-page >= 64 {
				w := page / 64
				if fs.resident[w] != ^uint64(0) {
					break
				}
				fs.referenced[w] = ^uint64(0)
				p.ctr.BufferHits += 64
				hitTotal += 64
				page += 64
			}
		}
		if page >= end {
			break
		}
		runStart := page
		for page < end && page-runStart < readaheadPages && !fs.bit(fs.resident, page) {
			page++
		}
		run := page - runStart
		p.ctr.BufferMisses += run
		missTotal += run
		if !p.readPages(proc, run*storage.PageBytes) {
			// Abandon the scan; the failure is on the proc.
			return missTotal
		}
		p.makeRoom(run)
		setRange(fs.resident, runStart, page)
		setRange(fs.referenced, runStart, page)
		fs.nResident += run
		p.resident += run
	}
	return missTotal
}

// makeRoom evicts pages until n new pages fit, using a CLOCK sweep over
// all files' resident bitsets. Dirty victims are written back
// asynchronously (charged to the device's write channel).
func (p *Pool) makeRoom(n int64) {
	if len(p.files) == 0 {
		return
	}
	guard := 0
	for p.resident+n > p.capacityPages {
		fs := p.files[p.handFile]
		if p.handWord >= len(fs.resident) {
			p.handFile = (p.handFile + 1) % len(p.files)
			p.handWord = 0
			guard++
			if guard > 3*len(p.files) {
				// Two full sweeps without progress (everything referenced
				// and re-referenced): force-clear reference bits happens
				// naturally below, so this is a safety valve.
				break
			}
			continue
		}
		w := fs.resident[p.handWord]
		if w == 0 {
			p.handWord++
			continue
		}
		ref := fs.referenced[p.handWord]
		// Second-chance: clear reference bits for this word, evict the
		// unreferenced residents.
		evictable := w &^ ref
		fs.referenced[p.handWord] &^= w
		if evictable == 0 {
			p.handWord++
			continue
		}
		dirtyEvicted := evictable & fs.dirty[p.handWord]
		if p.armed && dirtyEvicted != 0 {
			// WAL-before-data: a dirty page whose pageLSN is past the
			// flushed LSN cannot be written back yet — skip it this sweep
			// (the eviction overshoots onto other victims instead).
			var blocked uint64
			for b := dirtyEvicted; b != 0; b &= b - 1 {
				bit := b & -b
				pg := int64(p.handWord)*64 + int64(bits.TrailingZeros64(bit))
				if p.dirtyLast[pageKey{fs.file.ID, pg}] > p.log.FlushedLSN() {
					blocked |= bit
				}
			}
			evictable &^= blocked
			dirtyEvicted &^= blocked
			if evictable == 0 {
				p.handWord++
				continue
			}
		}
		fs.dirty[p.handWord] &^= evictable
		fs.nDirty -= int64(bits.OnesCount64(dirtyEvicted))
		fs.resident[p.handWord] &^= evictable
		cnt := int64(bits.OnesCount64(evictable))
		fs.nResident -= cnt
		p.resident -= cnt
		p.evictions += cnt
		if dirtyEvicted != 0 {
			if p.armed {
				for b := dirtyEvicted; b != 0; b &= b - 1 {
					pg := int64(p.handWord)*64 + int64(bits.TrailingZeros64(b&-b))
					p.markDurable(pageKey{fs.file.ID, pg})
				}
			}
			p.dev.WriteAsync(p.sm.Now(), int64(bits.OnesCount64(dirtyEvicted))*storage.PageBytes)
		}
		p.handWord++
		guard = 0
	}
}

// StartCheckpointer spawns the background checkpoint writer: every
// CheckpointInterval it walks the dirty bitsets and writes dirty pages
// back in 1 MB chunks using blocking writes, so it self-paces against the
// device and any blkio write throttle — competing with log flushes
// exactly as a real checkpoint does. With recovery armed each round is a
// fuzzy checkpoint: a CKPT_BEGIN record, a dirty-page-table snapshot,
// WAL-before-data writeback, and a CKPT_END record carrying the snapshot.
// No active-transaction table is logged: restart classifies losers from
// the transaction manager's history.
func (p *Pool) StartCheckpointer() {
	p.sm.Spawn("checkpoint", func(proc *sim.Proc) {
		for !p.stopped {
			p.ckptQ.WaitTimeout(proc, p.CheckpointInterval)
			if p.stopped {
				return
			}
			p.checkpoint(proc)
		}
	})
}

// checkpoint runs one checkpoint round. It may return early when the
// pool stops (or crashes) mid-round — the fuzzy checkpoint then has no
// CKPT_END record and recovery falls back to the previous complete one.
func (p *Pool) checkpoint(proc *sim.Proc) {
	const chunkPages = 128 // 1 MB
	var dpt []wal.PageRecLSN
	if p.armed {
		p.log.AppendBatch([]*wal.Record{{Type: wal.RecCkptBegin}})
		dpt = p.snapshotDPT()
	}
	// Pages whose dirty bit was cleared this round but whose chunk has
	// not been written yet (armed bookkeeping).
	var inFlight []pageKey
	var inFlightLSN int64
	written := func(n int64) {
		for ; n > 0 && len(inFlight) > 0; n-- {
			p.markDurable(inFlight[0])
			inFlight = inFlight[1:]
		}
	}
	for _, fs := range p.files {
		if fs.nDirty == 0 {
			// Clean: the walk below would find no page to write, so it
			// could not block and p.stopped is as the last check left it.
			continue
		}
		pending := int64(0)
		for wi := range fs.dirty {
			d := fs.dirty[wi] & fs.resident[wi]
			if d == 0 {
				continue
			}
			fs.dirty[wi] &^= d
			n := int64(bits.OnesCount64(d))
			fs.nDirty -= n
			pending += n
			if p.armed {
				for b := d; b != 0; b &= b - 1 {
					pg := int64(wi)*64 + int64(bits.TrailingZeros64(b&-b))
					pk := pageKey{fs.file.ID, pg}
					inFlight = append(inFlight, pk)
					if l := p.dirtyLast[pk]; l > inFlightLSN {
						inFlightLSN = l
					}
				}
			}
			for pending >= chunkPages {
				if !p.flushBeforeData(proc, inFlightLSN) {
					return
				}
				p.dev.Write(proc, chunkPages*storage.PageBytes)
				written(chunkPages)
				p.ckptPages += chunkPages
				if p.CkptChunkHook != nil {
					p.CkptChunkHook()
				}
				pending -= chunkPages
				if p.stopped {
					return
				}
			}
		}
		if pending > 0 {
			if !p.flushBeforeData(proc, inFlightLSN) {
				return
			}
			p.dev.Write(proc, pending*storage.PageBytes)
			written(pending)
			p.ckptPages += pending
			if p.CkptChunkHook != nil {
				p.CkptChunkHook()
			}
		}
		if p.stopped {
			return
		}
	}
	if p.armed {
		p.log.AppendBatch([]*wal.Record{{Type: wal.RecCkptEnd, DPT: dpt}})
	}
	p.ckptRounds++
}

// flushBeforeData enforces WAL-before-data: the log must be durable past
// the highest pageLSN among the pages about to be written. It reports
// false when the log stopped before reaching it.
func (p *Pool) flushBeforeData(proc *sim.Proc, lsn int64) bool {
	if !p.armed || lsn == 0 {
		return true
	}
	_, err := p.log.WaitDurable(proc, lsn)
	return err == nil
}

// Stop makes background procs exit at their next wakeup; the
// checkpointer is woken so it notices immediately instead of sleeping
// out the rest of its interval.
func (p *Pool) Stop() {
	p.stopped = true
	p.ckptQ.WakeAll(p.sm)
}

// ArmRecovery switches the pool into crash-recovery mode: per-page
// recLSN/pageLSN tracking, WAL-before-data on writeback and eviction,
// and fuzzy-checkpoint records through the log.
func (p *Pool) ArmRecovery(log *wal.Log) {
	p.armed = true
	p.log = log
	p.dirtyRec = make(map[pageKey]int64)
	p.dirtyLast = make(map[pageKey]int64)
	p.durable = make(map[pageKey]int64)
}

// markDirty records the append-position horizon of a page modification.
func (p *Pool) markDirty(pk pageKey) {
	lsn := p.log.AppendedLSN()
	if _, ok := p.dirtyRec[pk]; !ok {
		p.dirtyRec[pk] = lsn
	}
	p.dirtyLast[pk] = lsn
}

// markDurable advances a page's durable image to its last-dirty LSN.
func (p *Pool) markDurable(pk pageKey) {
	p.durable[pk] = p.dirtyLast[pk]
	delete(p.dirtyRec, pk)
	delete(p.dirtyLast, pk)
}

// snapshotDPT copies the dirty-page table, sorted for determinism.
func (p *Pool) snapshotDPT() []wal.PageRecLSN {
	dpt := make([]wal.PageRecLSN, 0, len(p.dirtyRec))
	for pk, rec := range p.dirtyRec {
		dpt = append(dpt, wal.PageRecLSN{Page: wal.PageID{File: pk.file, Page: pk.page}, RecLSN: rec})
	}
	sort.Slice(dpt, func(i, j int) bool {
		if dpt[i].Page.File != dpt[j].Page.File {
			return dpt[i].Page.File < dpt[j].Page.File
		}
		return dpt[i].Page.Page < dpt[j].Page.Page
	})
	return dpt
}

// DurablePageLSN returns the LSN the durable image of a page reflects
// (0 = the load-time image). Recovery's redo pass consults it to decide
// which pages must be read back.
func (p *Pool) DurablePageLSN(file int, page int64) int64 {
	return p.durable[pageKey{file, page}]
}

// WarmFile marks an entire file resident (up to pool capacity), modelling
// a post-load warm cache. Pages beyond capacity stay cold: when capacity
// runs out, the lowest-numbered cold pages are the ones warmed.
func (p *Pool) WarmFile(f *storage.File) {
	fs := p.state(f)
	fs.grow(f.Pages + 63)
	for w := int64(0); w*64 < f.Pages && p.resident < p.capacityPages; w++ {
		add := ^fs.resident[w]
		if tail := f.Pages - w*64; tail < 64 {
			add &= 1<<uint(tail) - 1
		}
		n := int64(bits.OnesCount64(add))
		for room := p.capacityPages - p.resident; n > room; n-- {
			add &^= 1 << uint(63-bits.LeadingZeros64(add))
		}
		fs.resident[w] |= add
		fs.nResident += n
		p.resident += n
	}
}
