package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The dispatch layout: a wakeup due now waits in the ready FIFO, a later
// one in the heap, and next takes from the two in one (at, seq) order.

// refEvent is a pending wakeup in the reference queue: the kernel's event
// before the two queues, with the epoch rule it used to drop stale ones.
type refEvent struct {
	at    Time
	seq   uint64
	p     int
	epoch uint64
}

// Operations of a dispatch script, one per input byte b: b&15 picks the
// operation, b>>4&7 the proc.
var (
	scheduleDelta = []Time{-2, -1, 0, 0, 1, 1, 2, 3, 7} // ops 0–8: schedule at now+delta
	nextUntil     = []Time{-1, 0, 2}                    // ops 9–11: next with until now+delta
)

const (
	opNextForever = 12
	opFinish      = 13 // ops 14 and 15 sweep
)

const maxDispatchOps = 128

// checkDispatch plays ops against the kernel's queues and a plain slice of
// refEvents side by side. The first byte picks the number of procs (1–8),
// which never run: next only pops and sets cur. Every next must return the
// same proc and leave the same clock as the reference's linear minimum by
// (at, seq) over its live events; after every sweep, neither queue may
// hold a stale event and the live events must equal the reference's; and
// after every step, no slot outside the live part of either queue may hold
// an event.
func checkDispatch(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	// The checks are quadratic in the script's length; longer scripts
	// reach nothing new.
	ops = ops[:min(len(ops), maxDispatchOps)]
	n := 1 + int(ops[0]%8)
	s := New(1)
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = &Proc{sim: s}
	}
	var (
		ref   []refEvent
		epoch = make([]uint64, n)
		done  = make([]bool, n)
		now   Time
		seq   uint64
	)
	stale := func(e refEvent) bool { return done[e.p] || e.epoch != epoch[e.p] }
	index := func(p *Proc) int {
		for i, q := range procs {
			if q == p {
				return i
			}
		}
		return -1
	}
	for step, b := range ops[1:] {
		op, i := int(b&15), int(b>>4)%n
		switch {
		case op < len(scheduleDelta):
			at := now + scheduleDelta[op]
			s.schedule(at, procs[i])
			seq++
			ref = append(ref, refEvent{max(at, now), seq, i, epoch[i]})
		case op < opFinish:
			until := Forever
			if op < opNextForever {
				until = now + nextUntil[op-len(scheduleDelta)]
			}
			want := -1
			for j, e := range ref {
				if !stale(e) && (want < 0 || e.at < ref[want].at || (e.at == ref[want].at && e.seq < ref[want].seq)) {
					want = j
				}
			}
			wantP := -1
			if want >= 0 && ref[want].at <= until {
				e := ref[want]
				ref = append(ref[:want], ref[want+1:]...)
				now, wantP = e.at, e.p
				epoch[e.p]++
			}
			s.until = until
			got := s.next()
			if index(got) != wantP || s.now != now || s.cur != got {
				t.Fatalf("step %d: next(until %d) = proc %d at %d, want proc %d at %d", step, until, index(got), s.now, wantP, now)
			}
		case op == opFinish:
			procs[i].woke = ^uint64(0)
			done[i] = true
		default:
			s.sweep()
			if k := staleQueued(s); k != 0 {
				t.Fatalf("step %d: %d stale events left after a sweep", step, k)
			}
			var live, got []refEvent
			for _, e := range ref {
				if !stale(e) {
					live = append(live, refEvent{at: e.at, seq: e.seq, p: e.p})
				}
			}
			for _, q := range [][]event{s.events, s.ready[s.rhead:]} {
				for _, e := range q {
					got = append(got, refEvent{at: e.at, seq: e.seq, p: index(e.p)})
				}
			}
			sort.Slice(got, func(a, b int) bool { return got[a].seq < got[b].seq })
			if !reflect.DeepEqual(got, live) {
				t.Fatalf("step %d: queued after a sweep %v, want %v", step, got, live)
			}
		}
		for j, e := range s.ready[:cap(s.ready)] {
			if (j < s.rhead || j >= len(s.ready)) && e != (event{}) {
				t.Fatalf("step %d: ready slot %d outside [%d, %d) holds %+v", step, j, s.rhead, len(s.ready), e)
			}
			if j >= s.rhead && j < len(s.ready) && e.at != s.now {
				t.Fatalf("step %d: ready event %+v not due now (%d)", step, e, s.now)
			}
		}
		for _, e := range s.events[len(s.events):cap(s.events)] {
			if e != (event{}) {
				t.Fatalf("step %d: heap slot past its length holds %+v", step, e)
			}
		}
	}
}

// dispatchSeeds are scripts that reach the layout's corners: a ready FIFO
// that compacts, heap events due at the instant of ready ones, stale
// wakeups in both queues, and a next cut off by until.
var dispatchSeeds = [][]byte{
	{7, 0x02, 0x12, 0x22, 0x32, 0x0c, 0x0c, 0x42, 0x52, 0x62, 0x72, 0x0c, 0x0c, 0x0c, 0x0c, 0x0c, 0x0c},
	{3, 0x04, 0x17, 0x0a, 0x22, 0x0c, 0x24, 0x12, 0x0c, 0x0c, 0x0c, 0x0c},
	{5, 0x03, 0x13, 0x0c, 0x02, 0x12, 0x0d, 0x0e, 0x0c, 0x0c, 0x0c},
	{2, 0x08, 0x18, 0x09, 0x0b, 0x00, 0x11, 0x0c, 0x0e, 0x0c, 0x0c},
	{7, 0x06, 0x14, 0x25, 0x0c, 0x32, 0x42, 0x12, 0x0c, 0x1d, 0x0e, 0x0c, 0x0c, 0x0c, 0x0c},
}

// FuzzDispatchOrder runs checkDispatch on arbitrary scripts: schedules at,
// after and before now, nexts cut off by a horizon, finished procs and
// sweeps over up to eight procs, against the reference's linear minimum
// by (at, seq) with the epoch rule.
func FuzzDispatchOrder(f *testing.F) {
	for _, seed := range dispatchSeeds {
		f.Add(seed)
	}
	f.Fuzz(checkDispatch)
}

func TestDispatchOrderMatchesReference(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	for run := 0; run < 500; run++ {
		ops := make([]byte, 1+g.Intn(maxDispatchOps))
		g.Read(ops)
		checkDispatch(t, ops)
		if t.Failed() {
			t.Fatalf("script %x", ops)
		}
	}
}

func TestDueNowEventsBypassTheHeap(t *testing.T) {
	const procs = 8
	s := New(1)
	var q WaitQueue
	budget, calls, stop, heapUsed := 0, 0, false, false
	// Every proc waits on q, keyed by its index, and when woken spends one
	// unit of budget on a wake of the queue: WakeOne, WakeAll or WakeUpTo
	// in turn. Once the budget is spent the woken procs wait without waking
	// anyone, and the Run ends with every proc parked.
	for i := 0; i < procs; i++ {
		s.Spawn("ring", func(p *Proc) {
			for {
				q.WaitKey(p, int64(i))
				if len(s.events) != 0 {
					heapUsed = true
				}
				if stop {
					q.WakeAll(s)
					return
				}
				if budget == 0 {
					continue
				}
				budget--
				switch calls++; calls % 3 {
				case 0:
					q.WakeOne(s)
				case 1:
					q.WakeAll(s)
				default:
					n := q.Len()
					if q.WakeUpTo(s, int64(calls%procs)); q.Len() == n {
						q.WakeOne(s)
					}
				}
			}
		})
	}
	s.Run(Forever) // every proc parks
	window := func() {
		budget = 1000
		q.WakeOne(s)
		s.Run(Forever)
		if heapUsed || len(s.events) != 0 {
			t.Fatalf("a wakeup due now went through the heap (%d events queued)", len(s.events))
		}
		if budget != 0 || q.Len() != procs {
			t.Fatalf("window ended with budget %d and %d procs parked", budget, q.Len())
		}
		for j, e := range s.ready[:cap(s.ready)] {
			if e != (event{}) {
				t.Fatalf("ready slot %d holds %+v after the run", j, e)
			}
		}
	}
	for i := 0; i < 3; i++ {
		window()
	}
	capacity := cap(s.ready)
	before := calls
	if avg := testing.AllocsPerRun(100, window); avg != 0 {
		t.Errorf("%v allocs per 1000 wakes, want 0", avg)
	}
	if calls-before < 100_000 {
		t.Fatalf("%d wakes, want at least 100 000", calls-before)
	}
	if cap(s.ready) != capacity {
		t.Errorf("ready capacity grew from %d to %d after warm-up", capacity, cap(s.ready))
	}
	stop = true
	q.WakeOne(s)
	s.Run(Forever)
	if s.Live() != 0 || s.Now() != 0 {
		t.Fatalf("%d procs still live, clock at %d", s.Live(), s.Now())
	}
}

func TestTimedWakeupDueNowGoesFirst(t *testing.T) {
	// The waker and the sleeper are both due at T, the waker first; the
	// waker then wakes a third proc at T. The sleeper's wakeup was
	// scheduled before T, so it must run before the one scheduled at T.
	const T = Time(Millisecond)
	s := New(1)
	var q WaitQueue
	var order []string
	rec := func(p *Proc, name string) {
		if p.Now() != T {
			t.Errorf("%s ran at %d, want %d", name, p.Now(), T)
		}
		order = append(order, name)
	}
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(Duration(T))
		rec(p, "waker")
		q.WakeOne(s)
	})
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(Duration(T))
		rec(p, "sleeper")
	})
	s.Spawn("woken", func(p *Proc) {
		q.Wait(p)
		rec(p, "woken")
	})
	s.Run(Forever)
	if want := []string{"waker", "sleeper", "woken"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

func TestSpawnAt(t *testing.T) {
	s := New(1)
	var ran []string
	var startedAt Time
	const at = Time(5 * Millisecond)
	late := s.SpawnAt(at, "late", func(p *Proc) {
		startedAt = p.Now()
		if p.car == nil {
			t.Error("a running proc has no carrier")
		}
		ran = append(ran, "late")
	})
	if s.Live() != 1 || late.car != nil {
		t.Fatalf("after SpawnAt: live %d, carrier %v; want 1 and none", s.Live(), late.car)
	}
	if end := s.Run(at - 1); end != at-1 || s.Live() != 1 || late.car != nil || len(ran) != 0 {
		t.Fatalf("Run(%d) = %d with live %d, carrier %v, ran %v: want the proc pending", at-1, end, s.Live(), late.car, ran)
	}
	s.Run(Forever)
	if startedAt != at || s.Live() != 0 || !reflect.DeepEqual(ran, []string{"late"}) {
		t.Fatalf("started at %d, live %d, ran %v; want %d, 0, [late]", startedAt, s.Live(), ran, at)
	}
	// A start in the past is now, after the events already due.
	ran = ran[:0]
	s.Spawn("due", func(p *Proc) { ran = append(ran, "due") })
	s.SpawnAt(at-Time(Millisecond), "past", func(p *Proc) {
		if p.Now() != at {
			t.Errorf("past start ran at %d, want %d", p.Now(), at)
		}
		ran = append(ran, "past")
	})
	s.Run(Forever)
	if !reflect.DeepEqual(ran, []string{"due", "past"}) || s.Live() != 0 {
		t.Fatalf("ran %v with %d live, want [due past] and none", ran, s.Live())
	}
}
