// Package lock implements the engine's hierarchical lock manager (shared,
// update, exclusive, and intent modes with the SQL Server compatibility
// matrix) plus named latches for short-duration structure protection.
//
// Lock waits accumulate in the LOCK wait class and latch waits in LATCH,
// the two DMV buckets the paper's Table 3 compares across TPC-E scale
// factors.
//
// Deadlock discipline: the engine's transactions acquire row locks in a
// global (object, row) order, take U locks before converting to X, and
// compatible requests barge past the queue, so wait-for cycles cannot
// form. The residual hazard — converter starvation under a continuous
// reader stream — is broken by a lock-wait timeout that aborts the victim
// transaction, the observable equivalent of a deadlock-victim kill.
package lock

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	IS Mode = iota // intent shared
	IX             // intent exclusive
	S              // shared
	U              // update
	X              // exclusive
	numModes
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case U:
		return "U"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compatible[granted][requested] follows SQL Server's matrix: U is
// compatible with granted S (and vice versa), but U conflicts with U.
var compatible = [numModes][numModes]bool{
	IS: {IS: true, IX: true, S: true, U: true, X: false},
	IX: {IS: true, IX: true, S: false, U: false, X: false},
	S:  {IS: true, IX: false, S: true, U: true, X: false},
	U:  {IS: true, IX: false, S: true, U: false, X: false},
	X:  {IS: false, IX: false, S: false, U: false, X: false},
}

// covers reports whether holding mode a makes a request for mode b a
// no-op (a is at least as strong as b).
func covers(a, b Mode) bool {
	switch a {
	case X:
		return true
	case U:
		return b == U || b == S || b == IS || b == IX
	case S:
		return b == S || b == IS
	case IX:
		return b == IX || b == IS
	case IS:
		return b == IS
	}
	return false
}

// Key identifies a lockable resource: an object (table/index) and a row
// within it; Row < 0 means the object itself.
type Key struct {
	Obj int
	Row int64
}

type grant struct {
	owner int64
	mode  Mode
	count int
}

// waiter is one blocked request. Waiters are recycled through the
// manager's free list: one is in use from the Acquire that queues it until
// that same Acquire returns, and promote and the timeout path drop every
// other reference before then.
type waiter struct {
	owner int64
	mode  Mode
	since sim.Time
	ready bool
	q     sim.WaitQueue
	next  *waiter // free list
}

// entry is the lock state of one key. Entries are recycled through the
// manager's free list: granted and queue start on the inline arrays (most
// keys see one or two owners and no waiter) and keep whatever heap
// capacity they grow across reuse.
type entry struct {
	key     Key
	granted []grant
	queue   []*waiter
	next    *entry // free list

	grantBuf [2]grant
	queueBuf [2]*waiter
}

// Manager is a lock manager bound to one simulation.
type Manager struct {
	sm  *sim.Sim
	ctr *metrics.Counters

	entries table

	// Free lists. An entry is in entries or on freeEntries, never both;
	// neither list is ever trimmed, so both are bounded by the peak number
	// of concurrently locked keys and blocked requests.
	freeEntries *entry
	freeWaiters *waiter

	// Timeout bounds any single lock wait; on expiry Acquire fails and
	// the transaction should abort and retry (the deadlock/starvation
	// victim mechanism — SQL Server picks victims via its detector, we
	// use a timeout with the same observable effect).
	Timeout sim.Duration

	// Timeouts counts lock waits that expired.
	Timeouts int64
}

// DefaultLockTimeout is the victim timeout for blocked lock requests.
const DefaultLockTimeout = 50 * sim.Millisecond

// NewManager creates a lock manager.
func NewManager(sm *sim.Sim, ctr *metrics.Counters) *Manager {
	return &Manager{
		sm: sm, ctr: ctr,
		entries: newTable(),
		Timeout: DefaultLockTimeout,
	}
}

// table maps each locked key to its entry: an open-addressed array of
// power-of-two length, probed linearly from a multiplicative hash of the
// key. It doubles when more than half its slots are full and never
// shrinks; a removal shifts the probe run behind it back, so no slot is
// ever a tombstone.
type table struct {
	slots []*entry
	n     int  // non-nil slots
	shift uint // 64 - log2(len(slots)): home reads the hash's top bits
}

const tableMinSlots = 64

func newTable() table {
	return table{slots: make([]*entry, tableMinSlots), shift: 64 - 6} // 6 = log2(tableMinSlots)
}

// home is key's first probe slot (Fibonacci hashing of both fields).
func (t *table) home(k Key) int {
	h := (uint64(k.Row) + uint64(k.Obj)*0xc2b2ae3d27d4eb4f) * 0x9e3779b97f4a7c15
	return int(h >> t.shift)
}

// find walks key's probe run once: it returns key's slot and entry, or
// the nil slot that ends the run and a nil entry.
func (t *table) find(k Key) (int, *entry) {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == nil || e.key == k {
			return i, e
		}
	}
}

// claim puts e in slot i, the nil slot find returned for e.key.
func (t *table) claim(i int, e *entry) {
	t.slots[i] = e
	t.n++
	if 2*t.n > len(t.slots) {
		t.grow()
	}
}

func (t *table) grow() {
	old := t.slots
	t.slots = make([]*entry, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, e := range old {
		if e == nil {
			continue
		}
		i := t.home(e.key)
		for t.slots[i] != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// remove clears slot i by backward-shift deletion: each later entry of
// the probe run whose home is not between the hole and itself moves
// back into the hole, so every key stays reachable from its home.
func (t *table) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
}

// compatibleWithGranted reports whether owner may take mode given the
// entry's current grants (the owner's own grants never conflict).
func (e *entry) compatibleWithGranted(owner int64, mode Mode) bool {
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

func (e *entry) findGrant(owner int64) *grant {
	for i := range e.granted {
		if e.granted[i].owner == owner {
			return &e.granted[i]
		}
	}
	return nil
}

// Acquire takes the lock, blocking p until granted or until the
// manager's timeout expires. It returns the wait duration and whether
// the lock was granted; on false the caller must abort its transaction
// (it is the victim).
//
// Admission policy: requests compatible with all current grants are
// admitted even when the queue is non-empty ("barging"). Blocking new
// shared readers behind a queued conversion would let reader-converter
// cycles form; with barging plus the engine's ordered acquisition, wait
// chains advance monotonically and cycles are impossible. The residual
// hazard is converter starvation under a continuous reader stream, which
// the timeout converts into a victim abort.
func (m *Manager) Acquire(p *sim.Proc, owner int64, key Key, mode Mode) (sim.Duration, bool) {
	i, e := m.entries.find(key)
	if e == nil {
		e = m.newEntry(key)
		m.entries.claim(i, e)
	}
	if g := e.findGrant(owner); g != nil {
		if covers(g.mode, mode) {
			g.count++
			return 0, true
		}
		// Conversion: upgrade in place if compatible with others.
		if e.compatibleWithGranted(owner, mode) {
			g.mode = mode
			g.count++
			return 0, true
		}
		// Conversion must wait; it goes to the head of the queue, as
		// converters do in SQL Server.
		w := m.newWaiter(p, owner, mode)
		e.queue = append(e.queue, nil)
		copy(e.queue[1:], e.queue)
		e.queue[0] = w
		return m.waitFor(p, e, w)
	}
	if e.compatibleWithGranted(owner, mode) {
		e.granted = append(e.granted, grant{owner: owner, mode: mode, count: 1})
		return 0, true
	}
	w := m.newWaiter(p, owner, mode)
	e.queue = append(e.queue, w)
	return m.waitFor(p, e, w)
}

// newEntry takes an empty entry off the free list, or makes one, for key.
func (m *Manager) newEntry(key Key) *entry {
	e := m.freeEntries
	if e == nil {
		e = &entry{}
		e.granted, e.queue = e.grantBuf[:0], e.queueBuf[:0]
	} else {
		m.freeEntries, e.next = e.next, nil
	}
	e.key = key
	return e
}

func (m *Manager) newWaiter(p *sim.Proc, owner int64, mode Mode) *waiter {
	w := m.freeWaiters
	if w == nil {
		w = &waiter{}
	} else {
		m.freeWaiters, w.next = w.next, nil
	}
	w.owner, w.mode, w.since, w.ready = owner, mode, p.Now(), false
	return w
}

// unqueue removes e.queue[i], keeping order and capacity and clearing the
// vacated slot: a recycled waiter must not stay reachable from a queue.
func (e *entry) unqueue(i int) {
	n := len(e.queue) - 1
	copy(e.queue[i:], e.queue[i+1:])
	e.queue[n] = nil
	e.queue = e.queue[:n]
}

// waitFor parks until the waiter is granted or the timeout expires, then
// recycles the waiter: granted or withdrawn, nothing else refers to it.
func (m *Manager) waitFor(p *sim.Proc, e *entry, w *waiter) (sim.Duration, bool) {
	wait, ok := m.park(p, e, w)
	w.next, m.freeWaiters = m.freeWaiters, w
	return wait, ok
}

func (m *Manager) park(p *sim.Proc, e *entry, w *waiter) (sim.Duration, bool) {
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
				break // granted in the same instant the timeout fired
			}
			// Victim: withdraw the request.
			for i, qw := range e.queue {
				if qw == w {
					e.unqueue(i)
					break
				}
			}
			wait := sim.Duration(p.Now() - start)
			metrics.ChargeWait(p, m.ctr, metrics.WaitLock, wait)
			m.Timeouts++
			i, _ := m.entries.find(e.key) // the table may have moved e while p was parked
			m.promote(i, e)
			return wait, false
		}
	}
	wait := sim.Duration(p.Now() - start)
	metrics.ChargeWait(p, m.ctr, metrics.WaitLock, wait)
	e.mergeGrant(w.owner, w.mode)
	return wait, true
}

// mergeGrant folds a newly granted request into the owner's grant entry
// (promote may have pre-registered it with count 0).
func (e *entry) mergeGrant(owner int64, mode Mode) {
	if g := e.findGrant(owner); g != nil {
		if !covers(g.mode, mode) {
			g.mode = mode
		}
		g.count++
		return
	}
	e.granted = append(e.granted, grant{owner: owner, mode: mode, count: 1})
}

// Release drops one reference to the owner's grant on key, removing the
// grant when the count reaches zero and promoting eligible waiters.
func (m *Manager) Release(owner int64, key Key) {
	slot, e := m.entries.find(key)
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
	m.promote(slot, e)
}

// promote grants e's queued waiters FIFO as long as they are compatible,
// and recycles e, which sits in slot i, once nothing holds or awaits it.
func (m *Manager) promote(i int, e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !e.compatibleWithGranted(w.owner, w.mode) {
			break
		}
		e.unqueue(0)
		w.ready = true
		w.q.WakeAll(m.sm)
		// Tentatively record the grant so the next waiter's compatibility
		// check sees it (the woken proc will merge counts on wakeup).
		if g := e.findGrant(w.owner); g == nil {
			e.granted = append(e.granted, grant{owner: w.owner, mode: w.mode, count: 0})
		}
	}
	if len(e.granted) == 0 && len(e.queue) == 0 {
		m.entries.remove(i)
		e.next, m.freeEntries = m.freeEntries, e
	}
}

// WaitingLongest returns the age of the oldest waiter, for liveness checks.
func (m *Manager) WaitingLongest(now sim.Time) sim.Duration {
	var max sim.Duration
	for _, e := range m.entries.slots {
		if e == nil {
			continue
		}
		for _, w := range e.queue {
			if d := sim.Duration(now - w.since); d > max {
				max = d
			}
		}
	}
	return max
}

// Held reports whether owner currently holds any grant on key.
func (m *Manager) Held(owner int64, key Key) bool {
	_, e := m.entries.find(key)
	return e != nil && e.findGrant(owner) != nil
}

// NamedLatch is a short-duration exclusive latch (allocation structures,
// log buffer, etc.). Waits are recorded in the LATCH class.
type NamedLatch struct {
	Name string
	res  *sim.Resource
	ctr  *metrics.Counters
}

// NewNamedLatch creates a latch.
func NewNamedLatch(name string, ctr *metrics.Counters) *NamedLatch {
	return &NamedLatch{Name: name, res: sim.NewResource(1), ctr: ctr}
}

// Do acquires the latch, holds it for holdNs of simulated time, and
// releases it.
func (l *NamedLatch) Do(p *sim.Proc, holdNs float64) {
	wait := l.res.Acquire(p)
	metrics.ChargeWait(p, l.ctr, metrics.WaitLatch, wait)
	if holdNs > 0 {
		p.Sleep(sim.Duration(holdNs))
	}
	l.res.Release(p.Sim())
}
