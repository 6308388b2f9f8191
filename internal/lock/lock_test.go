package lock

import (
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func setup() (*sim.Sim, *Manager, *metrics.Counters) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	return s, NewManager(s, ctr), ctr
}

func TestCompatibilityMatrixProperties(t *testing.T) {
	// Symmetric except (S,U)/(U,S) which are both true, and X conflicts
	// with everything including itself.
	modes := []Mode{IS, IX, S, U, X}
	for _, a := range modes {
		if compatible[a][X] || compatible[X][a] {
			t.Errorf("X must conflict with %v", a)
		}
	}
	if !compatible[S][U] || !compatible[U][S] {
		t.Error("U must be compatible with granted S and vice versa")
	}
	if compatible[U][U] {
		t.Error("U must conflict with U")
	}
	if !compatible[IS][IX] || !compatible[IX][IS] {
		t.Error("intent modes must be mutually compatible")
	}
	f := func(aRaw, bRaw uint8) bool {
		a, b := Mode(aRaw%5), Mode(bRaw%5)
		// covers(a,b) implies a granted alongside anything compatible
		// with a is also safe for b... at minimum, covers must be
		// reflexive and X covers all.
		return covers(a, a) && covers(X, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedLocksDoNotBlock(t *testing.T) {
	s, m, ctr := setup()
	k := Key{Obj: 1, Row: 5}
	done := 0
	for i := 0; i < 5; i++ {
		owner := int64(i + 1)
		s.Spawn("r", func(p *sim.Proc) {
			m.Acquire(p, owner, k, S)
			p.Sleep(10 * sim.Millisecond)
			m.Release(owner, k)
			done++
		})
	}
	s.Run(sim.Time(sim.Second))
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if ctr.WaitNs[metrics.WaitLock] != 0 {
		t.Fatal("shared locks should not wait")
	}
}

func TestExclusiveBlocksAndFIFO(t *testing.T) {
	s, m, ctr := setup()
	k := Key{Obj: 1, Row: 5}
	var order []int64
	for i := 0; i < 4; i++ {
		owner := int64(i + 1)
		s.Spawn("w", func(p *sim.Proc) {
			p.Sleep(sim.Duration(owner) * sim.Millisecond) // stagger arrivals
			m.Acquire(p, owner, k, X)
			order = append(order, owner)
			p.Sleep(20 * sim.Millisecond)
			m.Release(owner, k)
		})
	}
	s.Run(sim.Time(sim.Second))
	if len(order) != 4 {
		t.Fatalf("granted %d", len(order))
	}
	for i, o := range order {
		if o != int64(i+1) {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
	if ctr.WaitNs[metrics.WaitLock] == 0 {
		t.Fatal("X contention recorded no LOCK waits")
	}
}

func TestReacquireAndRefCount(t *testing.T) {
	s, m, _ := setup()
	k := Key{Obj: 2, Row: 1}
	s.Spawn("a", func(p *sim.Proc) {
		m.Acquire(p, 1, k, S)
		m.Acquire(p, 1, k, S) // recount
		m.Release(1, k)
		if !m.Held(1, k) {
			t.Error("lock dropped after single release of double acquire")
		}
		m.Release(1, k)
		if m.Held(1, k) {
			t.Error("lock still held after full release")
		}
	})
	s.Run(sim.Time(sim.Second))
}

func TestUpdateLockConversion(t *testing.T) {
	s, m, _ := setup()
	k := Key{Obj: 3, Row: 7}
	sequence := ""
	// Reader holds S; updater takes U (compatible), converts to X after
	// the reader releases.
	s.Spawn("reader", func(p *sim.Proc) {
		m.Acquire(p, 1, k, S)
		p.Sleep(50 * sim.Millisecond)
		sequence += "r"
		m.Release(1, k)
	})
	s.Spawn("updater", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		m.Acquire(p, 2, k, U) // granted alongside S
		sequence += "u"
		m.Acquire(p, 2, k, X) // must wait for reader
		sequence += "x"
		m.Release(2, k)
		m.Release(2, k)
	})
	s.Run(sim.Time(sim.Second))
	if sequence != "urx" {
		t.Fatalf("sequence = %q, want urx", sequence)
	}
}

func TestUpdateLocksConflict(t *testing.T) {
	s, m, _ := setup()
	k := Key{Obj: 4, Row: 1}
	var got []int64
	for i := 0; i < 2; i++ {
		owner := int64(i + 1)
		s.Spawn("u", func(p *sim.Proc) {
			p.Sleep(sim.Duration(owner) * sim.Millisecond)
			m.Acquire(p, owner, k, U)
			got = append(got, owner)
			p.Sleep(30 * sim.Millisecond)
			m.Release(owner, k)
		})
	}
	s.Run(sim.Time(sim.Second))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("U grant order = %v", got)
	}
}

func TestIntentLocksAllowRowAccess(t *testing.T) {
	s, m, _ := setup()
	table := Key{Obj: 5, Row: -1}
	count := 0
	for i := 0; i < 3; i++ {
		owner := int64(i + 1)
		s.Spawn("t", func(p *sim.Proc) {
			m.Acquire(p, owner, table, IX)
			m.Acquire(p, owner, Key{Obj: 5, Row: owner}, X)
			p.Sleep(10 * sim.Millisecond)
			m.Release(owner, Key{Obj: 5, Row: owner})
			m.Release(owner, table)
			count++
		})
	}
	s.Run(sim.Time(sim.Second))
	if count != 3 {
		t.Fatalf("count = %d: IX locks must not serialize row writers", count)
	}
}

func TestWaitingLongestLiveness(t *testing.T) {
	s, m, _ := setup()
	k := Key{Obj: 6, Row: 1}
	s.Spawn("holder", func(p *sim.Proc) {
		m.Acquire(p, 1, k, X)
		p.Sleep(100 * sim.Millisecond)
		m.Release(1, k)
	})
	s.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		m.Acquire(p, 2, k, X)
		m.Release(2, k)
	})
	s.Run(sim.Time(50 * sim.Millisecond))
	if m.WaitingLongest(s.Now()) == 0 {
		t.Fatal("expected a waiter mid-run")
	}
	s.Run(sim.Time(sim.Second))
	if m.WaitingLongest(s.Now()) != 0 {
		t.Fatal("waiter stuck")
	}
}

func TestNamedLatchSerializes(t *testing.T) {
	s := sim.New(1)
	ctr := &metrics.Counters{}
	lt := NewNamedLatch("log-buffer", ctr)
	var last sim.Time
	for i := 0; i < 10; i++ {
		s.Spawn("l", func(p *sim.Proc) {
			lt.Do(p, 10_000) // 10us hold
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	s.Run(sim.Time(sim.Second))
	if last < sim.Time(100_000) {
		t.Fatalf("latch did not serialize: finished at %v", last)
	}
	if ctr.WaitNs[metrics.WaitLatch] == 0 {
		t.Fatal("no LATCH waits recorded")
	}
}

// refManager is the lock manager as it stood before entries and waiters
// were pooled — one heap entry and one granted slice per key, one waiter
// and one wait queue per blocked request, slices cut and rebuilt rather
// than reused — kept verbatim as the oracle the differential test below
// checks the product manager against.
type refManager struct {
	sm  *sim.Sim
	ctr *metrics.Counters

	entries map[Key]*refEntry

	Timeout  sim.Duration
	Timeouts int64
}

type refWaiter struct {
	owner int64
	mode  Mode
	since sim.Time
	ready bool
	q     *sim.WaitQueue
}

type refEntry struct {
	granted []grant
	queue   []*refWaiter
}

func newRefManager(sm *sim.Sim, ctr *metrics.Counters) *refManager {
	return &refManager{
		sm: sm, ctr: ctr,
		entries: make(map[Key]*refEntry),
		Timeout: DefaultLockTimeout,
	}
}

func (e *refEntry) compatibleWithGranted(owner int64, mode Mode) bool {
	for _, g := range e.granted {
		if g.owner == owner {
			continue
		}
		if !compatible[g.mode][mode] {
			return false
		}
	}
	return true
}

func (e *refEntry) findGrant(owner int64) *grant {
	for i := range e.granted {
		if e.granted[i].owner == owner {
			return &e.granted[i]
		}
	}
	return nil
}

func (m *refManager) Acquire(p *sim.Proc, owner int64, key Key, mode Mode) (sim.Duration, bool) {
	e := m.entries[key]
	if e == nil {
		e = &refEntry{}
		m.entries[key] = e
	}
	if g := e.findGrant(owner); g != nil {
		if covers(g.mode, mode) {
			g.count++
			return 0, true
		}
		if e.compatibleWithGranted(owner, mode) {
			g.mode = mode
			g.count++
			return 0, true
		}
		w := &refWaiter{owner: owner, mode: mode, since: p.Now(), q: &sim.WaitQueue{}}
		e.queue = append([]*refWaiter{w}, e.queue...)
		return m.waitFor(p, key, e, w)
	}
	if e.compatibleWithGranted(owner, mode) {
		e.granted = append(e.granted, grant{owner: owner, mode: mode, count: 1})
		return 0, true
	}
	w := &refWaiter{owner: owner, mode: mode, since: p.Now(), q: &sim.WaitQueue{}}
	e.queue = append(e.queue, w)
	return m.waitFor(p, key, e, w)
}

func (m *refManager) waitFor(p *sim.Proc, key Key, e *refEntry, w *refWaiter) (sim.Duration, bool) {
	start := p.Now()
	deadline := start + sim.Time(m.Timeout)
	for !w.ready {
		remaining := sim.Duration(deadline - p.Now())
		if m.Timeout <= 0 {
			w.q.Wait(p)
			continue
		}
		if remaining <= 0 || w.q.WaitTimeout(p, remaining) {
			if w.ready {
				break
			}
			for i, qw := range e.queue {
				if qw == w {
					e.queue = append(e.queue[:i], e.queue[i+1:]...)
					break
				}
			}
			wait := sim.Duration(p.Now() - start)
			metrics.ChargeWait(p, m.ctr, metrics.WaitLock, wait)
			m.Timeouts++
			m.promote(key, e)
			return wait, false
		}
	}
	wait := sim.Duration(p.Now() - start)
	metrics.ChargeWait(p, m.ctr, metrics.WaitLock, wait)
	e.mergeGrant(w.owner, w.mode)
	return wait, true
}

func (e *refEntry) mergeGrant(owner int64, mode Mode) {
	if g := e.findGrant(owner); g != nil {
		if !covers(g.mode, mode) {
			g.mode = mode
		}
		g.count++
		return
	}
	e.granted = append(e.granted, grant{owner: owner, mode: mode, count: 1})
}

func (m *refManager) Release(owner int64, key Key) {
	e := m.entries[key]
	if e == nil {
		return
	}
	for i := range e.granted {
		if e.granted[i].owner == owner {
			e.granted[i].count--
			if e.granted[i].count <= 0 {
				e.granted = append(e.granted[:i], e.granted[i+1:]...)
			}
			break
		}
	}
	m.promote(key, e)
}

func (m *refManager) promote(key Key, e *refEntry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !e.compatibleWithGranted(w.owner, w.mode) {
			break
		}
		e.queue = e.queue[1:]
		w.ready = true
		w.q.WakeAll(m.sm)
		if g := e.findGrant(w.owner); g == nil {
			e.granted = append(e.granted, grant{owner: w.owner, mode: w.mode, count: 0})
		}
	}
	if len(e.granted) == 0 && len(e.queue) == 0 {
		delete(m.entries, key)
	}
}

func (m *refManager) WaitingLongest(now sim.Time) sim.Duration {
	var max sim.Duration
	for _, e := range m.entries {
		for _, w := range e.queue {
			if d := sim.Duration(now - w.since); d > max {
				max = d
			}
		}
	}
	return max
}

func (m *refManager) Held(owner int64, key Key) bool {
	e := m.entries[key]
	if e == nil {
		return false
	}
	return e.findGrant(owner) != nil
}

// locker is what the differential schedule drives: the exported surface
// both managers share.
type locker interface {
	Acquire(p *sim.Proc, owner int64, key Key, mode Mode) (sim.Duration, bool)
	Release(owner int64, key Key)
	Held(owner int64, key Key) bool
	WaitingLongest(now sim.Time) sim.Duration
}

// lockEvent is one observation of a schedule run: an Acquire's outcome as
// its caller saw it, or a monitor sample of Held and WaitingLongest.
type lockEvent struct {
	at      sim.Time
	owner   int64
	key     Key
	mode    Mode
	wait    sim.Duration
	ok      bool
	held    uint64 // monitor sample: bit (owner-1)*nkeys+key of Held
	longest sim.Duration
}

// runLockSchedule drives one seeded schedule against m on a fresh
// simulation. Every proc is one owner that, between short sleeps, takes a
// random key in a random mode — a covered re-acquire when it already holds
// the key at least as strongly, a conversion when it holds it more weakly,
// with half of all U holds converted to X next — or releases some of what
// it holds; keys come in no global order, so waits cycle and the timeout
// picks victims, which drop everything and carry on, as a transaction
// abort does. A monitor samples Held and WaitingLongest on the side.
func runLockSchedule(seed int64, mk func(*sim.Sim, *metrics.Counters) locker) ([]lockEvent, *metrics.Counters) {
	shape := sim.NewRNG(seed)
	nprocs := 2 + int(shape.Int64n(15)) // 2..16
	nkeys := 1 + int(shape.Int64n(8))   // 1..8
	steps := 20 + int(shape.Int64n(60))
	// Most acquisitions are the OLTP path's S/U/X on rows; every fourth key
	// is a table (Row -1) and also sees intent modes.
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = Key{Obj: 1 + i%3, Row: int64(i)}
		if i%4 == 3 {
			keys[i].Row = -1
		}
	}

	s := sim.New(seed)
	ctr := &metrics.Counters{}
	m := mk(s, ctr)
	var log []lockEvent
	running := nprocs
	for i := 0; i < nprocs; i++ {
		owner := int64(i + 1)
		g := sim.NewRNG(seed*1000 + owner)
		s.Spawn("owner", func(p *sim.Proc) {
			var held []Key
			lastU := -1 // index in held of a U not yet converted
			releaseAll := func() {
				for i := len(held) - 1; i >= 0; i-- {
					m.Release(owner, held[i])
				}
				held, lastU = held[:0], -1
			}
			acquire := func(k Key, mode Mode) {
				wait, ok := m.Acquire(p, owner, k, mode)
				log = append(log, lockEvent{at: p.Now(), owner: owner, key: k, mode: mode, wait: wait, ok: ok})
				if !ok {
					releaseAll()
					return
				}
				held = append(held, k)
				if mode == U {
					lastU = len(held) - 1
				}
			}
			for step := 0; step < steps; step++ {
				p.Sleep(sim.Duration(g.Int64n(400)) * sim.Microsecond)
				switch r := g.Int64n(10); {
				case lastU >= 0 && r < 5:
					k := held[lastU]
					lastU = -1
					acquire(k, X)
				case r < 7:
					k := keys[g.Int64n(int64(nkeys))]
					mode := []Mode{S, S, S, U, U, X}[g.Int64n(6)]
					if k.Row < 0 {
						mode = []Mode{IS, IS, IX, IX, S, X}[g.Int64n(6)]
					}
					acquire(k, mode)
				case r < 9:
					if n := len(held); n > 0 {
						m.Release(owner, held[n-1])
						held = held[:n-1]
						if lastU >= n-1 {
							lastU = -1
						}
					}
				default:
					releaseAll()
				}
			}
			releaseAll()
			running--
		})
	}
	s.Spawn("monitor", func(p *sim.Proc) {
		for running > 0 {
			p.Sleep(150 * sim.Microsecond)
			ev := lockEvent{at: p.Now(), longest: m.WaitingLongest(p.Now())}
			for o := 0; o < nprocs; o++ {
				for ki, k := range keys {
					if o*nkeys+ki < 64 && m.Held(int64(o+1), k) {
						ev.held |= 1 << (o*nkeys + ki)
					}
				}
			}
			log = append(log, ev)
		}
	})
	s.Run(sim.Time(60 * sim.Second))
	if running != 0 {
		panic("lock schedule did not finish")
	}
	return log, ctr
}

// TestPooledManagerMatchesReference runs seeded random schedules against
// the pooled manager and the reference: same grants in the same order
// after the same waits, same victims, same Held and WaitingLongest at
// every sample, same wait accounting, and nothing left locked: the table
// counts no key and no slot still reaches a recycled entry. It then
// checks the pool itself: whatever sits on a free list is empty all the
// way down its backing arrays.
func TestPooledManagerMatchesReference(t *testing.T) {
	var sawTimeout, sawWait, sawSpill bool
	for seed := int64(1); seed <= 300; seed++ {
		var ref *refManager
		var got *Manager
		const timeout = 3 * sim.Millisecond
		want, wantCtr := runLockSchedule(seed, func(s *sim.Sim, c *metrics.Counters) locker {
			ref = newRefManager(s, c)
			ref.Timeout = timeout
			return ref
		})
		have, haveCtr := runLockSchedule(seed, func(s *sim.Sim, c *metrics.Counters) locker {
			got = NewManager(s, c)
			got.Timeout = timeout
			return got
		})
		if len(have) != len(want) {
			t.Fatalf("seed %d: %d events, reference %d", seed, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("seed %d event %d: %+v, reference %+v", seed, i, have[i], want[i])
			}
			sawWait = sawWait || want[i].wait > 0
		}
		if got.Timeouts != ref.Timeouts {
			t.Fatalf("seed %d: Timeouts %d, reference %d", seed, got.Timeouts, ref.Timeouts)
		}
		sawTimeout = sawTimeout || ref.Timeouts > 0
		if *haveCtr != *wantCtr {
			t.Fatalf("seed %d: counters differ from the reference", seed)
		}
		if got.entries.n != 0 || len(ref.entries) != 0 {
			t.Fatalf("seed %d: %d entries left locked, reference %d", seed, got.entries.n, len(ref.entries))
		}
		for i, e := range got.entries.slots {
			if e != nil {
				t.Fatalf("seed %d: slot %d still points at an entry", seed, i)
			}
		}

		if got.freeEntries == nil {
			t.Fatalf("seed %d: no entry was recycled", seed)
		}
		for e := got.freeEntries; e != nil; e = e.next {
			if len(e.granted) != 0 || len(e.queue) != 0 {
				t.Fatalf("seed %d: free entry holds %d grants, %d waiters", seed, len(e.granted), len(e.queue))
			}
			for _, w := range e.queue[:cap(e.queue)] {
				if w != nil {
					t.Fatalf("seed %d: free entry's queue array still points at a waiter", seed)
				}
			}
			sawSpill = sawSpill || cap(e.granted) > len(e.grantBuf)
		}
		for w := got.freeWaiters; w != nil; w = w.next {
			if w.q.Len() != 0 {
				t.Fatalf("seed %d: free waiter still has a parked proc", seed)
			}
		}
	}
	if !sawTimeout || !sawWait || !sawSpill {
		t.Fatalf("schedules too tame: timeout %v, wait %v, spill past the inline array %v", sawTimeout, sawWait, sawSpill)
	}
}

// lockManyKeys is TPC-E marketWatch's shape: one owner S-locks 100
// distinct rows of obj, starting at row first, then releases them in
// reverse.
func lockManyKeys(p *sim.Proc, m *Manager, obj int, first int64) {
	for r := first; r < first+100; r++ {
		m.Acquire(p, 1, Key{Obj: obj, Row: r}, S)
	}
	for r := first + 99; r >= first; r-- {
		m.Release(1, Key{Obj: obj, Row: r})
	}
}

func TestAcquireReleaseAllocatesNothing(t *testing.T) {
	s, m, _ := setup()
	s.Spawn("t", func(p *sim.Proc) {
		i := int64(0)
		uncontended := func() {
			k := Key{Obj: 1, Row: i % 1024}
			i++
			m.Acquire(p, 1, k, X)
			m.Release(1, k)
		}
		uncontended() // warm-up: the first entry comes from the heap
		if n := testing.AllocsPerRun(1000, uncontended); n != 0 {
			t.Errorf("uncontended Acquire+Release: %v allocs, want 0", n)
		}
		shared := func() {
			k := Key{Obj: 2, Row: i % 1024}
			i++
			for o := int64(1); o <= 3; o++ {
				m.Acquire(p, o, k, S)
			}
			for o := int64(1); o <= 3; o++ {
				m.Release(o, k)
			}
		}
		shared() // warm-up: the third sharer spills the entry's inline array once
		if n := testing.AllocsPerRun(1000, shared); n != 0 {
			t.Errorf("shared S×3 then release: %v allocs, want 0", n)
		}
		manyKeys := func() {
			lockManyKeys(p, m, 3, i)
			i++
		}
		manyKeys() // warm-up: 100 entries from the heap, and the table grows to hold them
		if n := testing.AllocsPerRun(100, manyKeys); n != 0 {
			t.Errorf("S on 100 rows then release in reverse: %v allocs, want 0", n)
		}
	})
	s.Run(sim.Time(sim.Second))
}
