// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulated entities ("procs") run as coroutines that execute in strict
// lockstep: at any instant exactly one — a single proc, or Run's dispatch
// loop — is active. Procs advance simulated time by blocking on kernel
// primitives (Sleep, WaitQueue, Resource). The proc that blocks takes the
// earliest pending event itself and advances the virtual clock; if the
// event is its own it carries on without any switch, otherwise it yields
// to Run, which resumes the event's proc — two coroutine switches per
// hand-off, no scheduler, lock or channel. Pending events sit in two
// queues: wakeups due at the current instant in a FIFO, later ones in a
// heap. Between them they leave in one total order (time, schedule
// sequence) whoever takes them, so because execution is serialized and
// all randomness flows through the kernel's seeded RNG, a simulation with
// a given seed and configuration reproduces identical results on every
// run.
package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sync"
)

// Time is an absolute simulated time in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is the horizon of a Run that goes on until no event is left.
const Forever Time = math.MaxInt64

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// DurationOf converts a floating-point number of seconds to a Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

// Sim is a discrete-event simulation instance.
type Sim struct {
	now    Time
	seq    uint64
	events []event // wakeups due after now: 4-ary min-heap ordered by event.before
	ready  []event // wakeups due now, in seq order from ready[rhead] (see pushReady)
	rhead  int
	rng    *RNG

	// dead counts the stale events known to sit in either queue: timeout
	// wakeups whose wait was woken first, or wakes a timeout beat to the
	// same instant (see noteDead). It is a lower bound — next discards a
	// stale event whether it was counted or not.
	dead     int
	sweepDue func(dead, queued int) bool // defaultSweepDue, except in tests

	until Time  // horizon of the Run in progress; Halt pulls it in to now
	cur   *Proc // proc currently executing, nil outside Run
	nlive int   // procs spawned and not yet finished

	prof  bool                    // Profiling() as sampled when Run began
	tally [len(perCall)]profTally // per-call phases' self-profile, flushed when Run returns (prof.go)
}

// New creates a simulation whose RNG is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		rng:      NewRNG(seed),
		sweepDue: defaultSweepDue,
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// RNG returns the simulation's deterministic random number generator.
func (s *Sim) RNG() *RNG { return s.rng }

type event struct {
	at  Time
	seq uint64
	p   *Proc
}

// before is the kernel's total event order: time, then schedule sequence.
// seq is unique, so any correct heap pops the same sequence.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// stale reports whether the wakeup must not fire: it was scheduled before
// its proc's last resume (the proc may have parked elsewhere since), or
// its proc has finished.
func (e *event) stale() bool { return e.seq <= e.p.woke }

// schedule queues a wakeup of p at at, or at now if at is not later: a
// wakeup due now goes to the ready FIFO and never touches the heap.
func (s *Sim) schedule(at Time, p *Proc) {
	s.seq++
	if at <= s.now {
		s.pushReady(event{at: s.now, seq: s.seq, p: p})
		return
	}
	s.push(event{at: at, seq: s.seq, p: p})
}

// pushReady appends e to the ready FIFO. When the slice is full and its
// head has moved, the pending events are copied to the front instead of
// growing it, and the vacated tail is cleared so it pins no proc: the
// capacity stays at the peak pending count, and a warm run allocates
// nothing.
func (s *Sim) pushReady(e event) {
	if len(s.ready) == cap(s.ready) && s.rhead > 0 {
		n := copy(s.ready, s.ready[s.rhead:])
		clear(s.ready[n:])
		s.ready, s.rhead = s.ready[:n], 0
	}
	s.ready = append(s.ready, e)
}

// popReady removes the ready head, s.ready[s.rhead].
func (s *Sim) popReady() {
	s.ready[s.rhead] = event{} // drop the *Proc, as pop does
	if s.rhead++; s.rhead == len(s.ready) {
		s.ready, s.rhead = s.ready[:0], 0
	}
}

// push and pop keep s.events a 4-ary min-heap (children of i are
// 4i+1..4i+4): half the depth of a binary heap for the sift-up every
// schedule pays, and typed, so no event is boxed on the way in or out.
func (s *Sim) push(e event) {
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.events = h
}

// pop removes the earliest event, s.events[0].
func (s *Sim) pop() {
	h := s.events
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // drop the *Proc so a finished proc can be collected
	h = h[:n]
	s.events = h
	if n > 0 {
		s.siftDown(0, e)
	}
}

// siftDown places e in the subtree whose root, the hole s.events[i], holds
// nothing worth keeping.
func (s *Sim) siftDown(i int, e event) {
	h := s.events
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// defaultSweepDue is the sweep policy: dead events outnumber the rest of
// the queues, which are big enough for the O(n) pass to pay. Between
// sweeps at most half of 64 or more queued events are dead, so the queues
// hold at most twice their peak of live wakeups plus 64, however long the
// run.
func defaultSweepDue(dead, queued int) bool { return queued >= 64 && 2*dead > queued }

// noteDead records that one queued event has just gone stale and will
// never fire, and sweeps both queues once such events dominate them.
func (s *Sim) noteDead() {
	s.dead++
	if s.sweepDue(s.dead, s.queued()) {
		s.sweep()
	}
}

// queued returns the number of events in both queues.
func (s *Sim) queued() int { return len(s.events) + len(s.ready) - s.rhead }

// sweep removes every stale event from both queues and rebuilds the heap
// from the rest. Live events keep their (at, seq) and the order is total,
// so they are dispatched in the sequence they would have been without the
// sweep.
func (s *Sim) sweep() {
	s.events = keepLive(s.events, 0)
	if n := len(s.events); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- { // from the last parent up
			s.siftDown(i, s.events[i])
		}
	}
	s.ready, s.rhead = keepLive(s.ready, s.rhead), 0
	s.dead = 0
}

// keepLive moves the live events of q[from:] to the front of q, in order,
// and clears the rest of q so that it pins no proc.
func keepLive(q []event, from int) []event {
	live := q[:0]
	for i := from; i < len(q); i++ {
		if !q[i].stale() {
			live = append(live, q[i])
		}
	}
	clear(q[len(live):])
	return live
}

// next is the kernel's one dispatch step, run by the proc giving up control
// (or by Run, for the first event of the call). It discards stale wakeups,
// then takes the earliest event, advances the clock and makes its proc
// current. It returns nil, leaving the event queued, when no event is left
// or the earliest lies past the Run horizon.
//
// The earliest event is the heap top when that is due now, otherwise the
// ready head, otherwise the heap top at a later time, and that is exactly
// the (at, seq) order: a heap event due now was scheduled before the clock
// reached now, so its seq is below that of every ready event, which was
// scheduled at now; ready events are appended in seq order; and while the
// ready FIFO is not empty the clock cannot advance, so every ready event
// is due now.
func (s *Sim) next() *Proc {
	mark := s.ProfStart(ProfLoop)
	var p *Proc
	for {
		var ev *event
		fromHeap := len(s.events) > 0 && (s.events[0].at <= s.now || len(s.ready) == 0)
		if fromHeap {
			ev = &s.events[0]
		} else if len(s.ready) > 0 {
			ev = &s.ready[s.rhead]
		} else {
			break
		}
		if ev.stale() {
			// Its proc resumed on another wakeup: this is the queue wake a
			// timeout beat to the same instant, or a dead timeout that no
			// sweep came for. Stale wakeups must not fire.
			s.take(fromHeap)
			if s.dead > 0 {
				s.dead--
			}
			continue
		}
		if ev.at <= s.until {
			p = ev.p
			s.now = ev.at
			p.epoch++
			p.woke = s.seq
			s.take(fromHeap)
		}
		break
	}
	s.cur = p
	s.ProfStop(ProfLoop, mark)
	return p
}

// take removes the event next has just looked at: the heap top or the
// ready head.
func (s *Sim) take(fromHeap bool) {
	if fromHeap {
		s.pop()
	} else {
		s.popReady()
	}
}

// A carrier is the coroutine a proc runs on: an iter.Pull whose sequence
// runs one proc's body from its first dispatch to its return, yields, and
// then runs whichever proc Run hands it next. Only Run resumes a carrier;
// a proc yields its carrier back to Run when it parks on another proc's
// event, and when it finishes.
type carrier struct {
	resume func() (struct{}, bool) // iter.Pull's next: run p until it yields
	yield  func(struct{}) bool     // back to Run; valid inside the carrier
	p      *Proc                   // proc to run, set by Run before the first resume
}

func newCarrier() *carrier {
	c := new(carrier)
	c.resume, _ = iter.Pull(c.body) // never stopped: idle carriers live as long as the process
	return c
}

func (c *carrier) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		c.p = nil
		yield(struct{}{}) // always true: nothing calls iter.Pull's stop
	}
}

// carriers is the process-wide LIFO free list of carriers whose proc has
// finished. iter.Pull allocates about ten objects, so a carrier outlives
// its proc. The list is shared rather than per Sim because a workload
// that boots a fresh Sim per run and spawns its clients at once would
// otherwise call iter.Pull per proc; it sits behind a mutex because
// parallel sweeps run Sims on several goroutines. (A sync.Pool would drop
// carriers at GC and strand their parked goroutines.)
var carriers struct {
	mu   sync.Mutex
	free []*carrier
}

func getCarrier() *carrier {
	carriers.mu.Lock()
	defer carriers.mu.Unlock()
	n := len(carriers.free)
	if n == 0 {
		return newCarrier()
	}
	c := carriers.free[n-1]
	carriers.free[n-1] = nil
	carriers.free = carriers.free[:n-1]
	return c
}

// putCarrier returns a carrier that has yielded after its proc finished.
// Only Run may call it: from inside the carrier, another goroutine could
// take and resume it before it had yielded.
func putCarrier(c *carrier) {
	carriers.mu.Lock()
	carriers.free = append(carriers.free, c)
	carriers.mu.Unlock()
}

// Proc is a simulated process. All Proc methods must be called from the
// proc's own body while it is the active entity.
type Proc struct {
	sim   *Sim
	name  string
	fn    func(*Proc) // the body; nil once it has returned
	car   *carrier    // from first dispatch until the body returns
	woke  uint64      // s.seq at the last resume, ^0 once finished: earlier wakeups are stale
	epoch uint64      // resumes so far (see Resumes)
	key   int64       // wait key of the WaitKey in progress (see WakeUpTo)
	fail  error       // errno-style sticky failure slot (see SetFail)
	attr  any         // opaque per-proc attribution slot (see SetAttr)
}

// run is the proc's whole life on its carrier: the body, then the
// dispatch of the event after its last. A panic in the body is raised
// again naming the proc, with the proc's own stack, which iter.Pull would
// otherwise drop when it carries the panic over to Run. A Goexit (t.Fatal
// in a proc) is not a panic: recover returns nil and it propagates, and
// iter.Pull makes Run's caller Goexit too.
func (p *Proc) run() {
	defer func() {
		if v := recover(); v != nil {
			panic(fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", p.name, v, debug.Stack()))
		}
	}()
	p.fn(p)
	p.fn = nil
	p.woke = ^uint64(0)
	p.sim.nlive--
	p.sim.next()
}

// SetAttr attaches an opaque attribution value to the proc. Higher layers
// use it to charge activity to the owning statement without threading a
// parameter through every call chain: the engine attaches a per-statement
// counter set before running a statement, layers that record waits or I/O
// look it up via their own typed accessor (e.g. metrics.StmtOf), and query
// workers propagate the coordinator's value at spawn. Because the
// simulation is strictly serialized, reads and writes never race.
func (p *Proc) SetAttr(v any) { p.attr = v }

// Attr returns the value attached with SetAttr, or nil.
func (p *Proc) Attr() any { return p.attr }

// SetFail records a sticky failure on the proc, errno-style: a layer that
// cannot return an error through its call chain (e.g. a buffer-pool read
// that exhausted its device retries) deposits it here, and a higher layer
// that owns the proc (the session, the query coordinator) collects it with
// TakeFail. The first failure wins until taken.
func (p *Proc) SetFail(err error) {
	if p.fail == nil {
		p.fail = err
	}
}

// TakeFail returns the recorded failure, if any, and clears the slot.
func (p *Proc) TakeFail() error {
	err := p.fail
	p.fail = nil
	return err
}

// Resumes returns how many times the proc has been given control — once
// when it starts, once per park that returns. Tests and benchmarks use the
// difference across a call to count the wakeups the call took.
func (p *Proc) Resumes() uint64 { return p.epoch }

// Sim returns the simulation the proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

// RNG returns the simulation RNG.
func (p *Proc) RNG() *RNG { return p.sim.rng }

// Spawn creates a new proc that runs fn. The proc starts at the current
// simulated time (it is scheduled as an event, so it begins once the
// events already queued for now have run).
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc { return s.SpawnAt(s.now, name, fn) }

// SpawnAt creates a new proc that runs fn from simulated time at, or from
// now if at is not later. Its first dispatch is an event scheduled by the
// call, so the proc counts as live at once but takes a carrier only when
// it starts: a proc that waits for its start time costs its Proc and one
// queued event.
func (s *Sim) SpawnAt(at Time, name string, fn func(*Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn}
	s.nlive++
	s.schedule(at, p)
	return p
}

// park gives up control and blocks until one of the proc's wakeups is
// delivered. When that wakeup is the very next event there is nobody to
// switch to and park returns at once; otherwise it yields its carrier to
// Run, which resumes whichever proc next made current.
func (p *Proc) park() {
	s := p.sim
	if s.cur != p {
		panic(fmt.Sprintf("sim: proc %q parked while not active", p.name))
	}
	if s.next() != p {
		p.car.yield(struct{}{})
	}
}

// Sleep suspends the proc for d simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+Time(d), p)
	p.park()
}

// Run executes events until none remains, the clock would pass until, or
// a proc calls Halt. It returns the time at which it stopped: a finite
// until, unless halted; otherwise the time of the last event run. Run is
// the dispatcher: it resumes the carrier of the current proc until that
// proc yields, and then the proc the yielder made current, until one of
// them finds nothing left to run before until. A proc's panic or Goexit
// leaves Run the same way, and its carrier, finished, never returns to the
// free list. A parked proc keeps its carrier until woken: a simulation
// ends by stopping its services and running Forever until no event is
// left. Run must not be called from one of s's own procs.
func (s *Sim) Run(until Time) Time {
	if s.cur != nil {
		panic(fmt.Sprintf("sim: Run called from inside proc %q", s.cur.name))
	}
	start, t0 := s.now, ProfMark(0)
	if s.until, s.prof = until, Profiling(); s.prof {
		t0 = profNow()
	}
	for p := s.next(); p != nil; p = s.cur {
		c := p.car
		if c == nil {
			c = getCarrier()
			c.p, p.car = p, c
		}
		c.resume()
		if p.fn == nil { // finished
			p.car = nil
			putCarrier(c)
		}
	}
	if s.now < s.until && s.until != Forever {
		s.now = s.until
	}
	if s.prof {
		s.profFlush(t0, start)
	}
	return s.now
}

// Halt, called from a proc, ends the Run in progress once the events due
// now have run, leaving the clock at now. The next Run carries on.
func (s *Sim) Halt() { s.until = s.now }

// Live returns the number of spawned procs that have not finished.
func (s *Sim) Live() int { return s.nlive }

// WaitQueue is a FIFO queue of blocked procs, the building block for
// condition-style synchronization. A proc calls Wait to park itself; another
// proc (or the same code path on a different proc) calls WakeOne or WakeAll
// to schedule parked procs at the current simulated time.
type WaitQueue struct {
	procs []*Proc
}

// Wait parks p on the queue until woken.
func (q *WaitQueue) Wait(p *Proc) {
	q.procs = append(q.procs, p)
	p.park()
}

// WaitTimeout parks p on the queue until woken or until d elapses. It
// reports whether the wait timed out; on timeout, p has been removed
// from the queue. A timed-out wakeup that raced with a WakeOne/WakeAll
// is treated as woken (timedOut = false) when p was already dequeued.
//
// A woken wait leaves its timeout wakeup in the event heap, stale, and
// a loop that re-arms a long timeout every time it is woken would grow the
// heap by one such event per iteration until the clock reached them. So
// the kernel counts them and sweeps both queues when they dominate them
// (defaultSweepDue): the queues stay within twice their live wakeups plus
// 64.
func (q *WaitQueue) WaitTimeout(p *Proc, d Duration) (timedOut bool) {
	if d <= 0 {
		d = 1
	}
	p.sim.schedule(p.sim.now+Time(d), p) // timeout wakeup
	q.procs = append(q.procs, p)
	p.park()
	// Either the timeout fired (p still queued) or a wake dequeued p
	// first; the loser's event was scheduled before this resume, so it is
	// stale and will be dropped.
	for i, qp := range q.procs {
		if qp == p {
			q.remove(i)
			return true
		}
	}
	p.sim.noteDead() // the timeout wakeup, or the wake it beat to the same instant
	return false
}

// remove deletes q.procs[i], keeping order and capacity. The vacated tail
// slot is cleared so the backing array does not pin a finished proc.
func (q *WaitQueue) remove(i int) {
	n := len(q.procs) - 1
	copy(q.procs[i:], q.procs[i+1:])
	q.procs[n] = nil
	q.procs = q.procs[:n]
}

// WaitKey parks p on the queue under key until a WakeUpTo at or past key,
// or a WakeOne/WakeAll, wakes it.
func (q *WaitQueue) WaitKey(p *Proc, key int64) {
	p.key = key
	q.Wait(p)
}

// WakeUpTo wakes, in queue order, every proc whose key is at most key and
// leaves the others parked in their order. The queue need not be sorted by
// key, so it is scanned whole. Every waiter must have parked with WaitKey.
func (q *WaitQueue) WakeUpTo(s *Sim, key int64) {
	kept := q.procs[:0]
	for _, p := range q.procs {
		if p.key <= key {
			s.schedule(s.now, p)
		} else {
			kept = append(kept, p)
		}
	}
	clear(q.procs[len(kept):])
	q.procs = kept
}

// WakeOne wakes the proc at the head of the queue, if any. It reports
// whether a proc was woken.
func (q *WaitQueue) WakeOne(s *Sim) bool {
	if len(q.procs) == 0 {
		return false
	}
	p := q.procs[0]
	q.remove(0)
	s.schedule(s.now, p)
	return true
}

// WakeAll wakes every parked proc.
func (q *WaitQueue) WakeAll(s *Sim) {
	for _, p := range q.procs {
		s.schedule(s.now, p)
	}
	clear(q.procs)
	q.procs = q.procs[:0]
}

// Len returns the number of parked procs.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Resource is a counted resource with FIFO-ish admission: procs that find
// the resource exhausted park on an internal queue and re-check when woken.
type Resource struct {
	capacity int
	inUse    int
	q        WaitQueue
}

// NewResource creates a resource with the given capacity (units).
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{capacity: capacity}
}

// Acquire blocks p until a unit is available, then takes it. It returns the
// simulated time spent waiting.
func (r *Resource) Acquire(p *Proc) Duration {
	start := p.sim.now
	for r.inUse >= r.capacity {
		r.q.Wait(p)
	}
	r.inUse++
	return Duration(p.sim.now - start)
}

// Release returns a unit and wakes one waiter.
func (r *Resource) Release(s *Sim) {
	if r.inUse <= 0 {
		panic("sim: Resource.Release without Acquire")
	}
	r.inUse--
	r.q.WakeOne(s)
}

// Waiting returns the number of procs parked waiting for a unit — the
// resource's instantaneous queue depth.
func (r *Resource) Waiting() int { return r.q.Len() }
