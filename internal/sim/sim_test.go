package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	s := New(1)
	var at []Time
	s.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		at = append(at, p.Now())
		p.Sleep(5 * Millisecond)
		at = append(at, p.Now())
	})
	end := s.Run(Time(Second))
	if len(at) != 2 || at[0] != Time(10*Millisecond) || at[1] != Time(15*Millisecond) {
		t.Fatalf("wakeup times = %v", at)
	}
	if end != Time(Second) {
		t.Fatalf("end = %v, want %v", end, Time(Second))
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	s := New(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Sleep(Millisecond)
			order = append(order, name)
		})
	}
	s.Run(Time(Second))
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("late", func(p *Proc) {
		p.Sleep(2 * Second)
		ran = true
	})
	s.Run(Time(Second))
	if ran {
		t.Fatal("event past deadline executed")
	}
	if s.Now() != Time(Second) {
		t.Fatalf("now = %v", s.Now())
	}
	// Continuing past the deadline runs it.
	s.Run(Time(3 * Second))
	if !ran {
		t.Fatal("event not executed after extending deadline")
	}
}

func TestRunForeverStopsAtTheLastEvent(t *testing.T) {
	s := New(1)
	if end := s.Run(Forever); end != 0 || s.Now() != 0 {
		t.Fatalf("empty heap: Run(Forever) = %d, now %d, want 0", end, s.Now())
	}
	s.Spawn("a", func(p *Proc) { p.Sleep(3 * Second) })
	s.Spawn("b", func(p *Proc) { p.Sleep(7 * Millisecond) })
	if end := s.Run(Forever); end != Time(3*Second) || s.Now() != end || s.Live() != 0 {
		t.Fatalf("Run(Forever) = %d, now %d, live %d; want the last event, 3 s, and none live", end, s.Now(), s.Live())
	}
	if end := s.Run(Forever); end != Time(3*Second) {
		t.Fatalf("Run(Forever) on the emptied heap = %d, want Now() = 3 s", end)
	}
}

func TestHaltEndsRunAfterTheCurrentInstant(t *testing.T) {
	s := New(1)
	var ran []string
	s.Spawn("halter", func(p *Proc) {
		p.Sleep(Second)
		p.Sim().Halt()
		ran = append(ran, "halter")
	})
	s.Spawn("same-instant", func(p *Proc) {
		p.Sleep(Second)
		ran = append(ran, "same-instant")
	})
	s.Spawn("later", func(p *Proc) {
		p.Sleep(Second + Nanosecond)
		ran = append(ran, "later")
	})
	if end := s.Run(Forever); end != Time(Second) || s.Now() != Time(Second) {
		t.Fatalf("halted Run(Forever) = %d, now %d, want 1 s", end, s.Now())
	}
	if want := []string{"halter", "same-instant"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v before the halt took effect, want %v", ran, want)
	}
	// A finite Run after a halted one resumes, and still ends at its horizon.
	if end := s.Run(Time(5 * Second)); end != Time(5*Second) || len(ran) != 3 || s.Live() != 0 {
		t.Fatalf("Run(5 s) after Halt = %d, ran %v, live %d", end, ran, s.Live())
	}
	// Halt within a finite Run keeps the clock at the halt, not the horizon.
	s.Spawn("halter2", func(p *Proc) {
		p.Sleep(Second)
		p.Sim().Halt()
	})
	s.Spawn("after", func(p *Proc) { p.Sleep(2 * Second) })
	if end := s.Run(Time(100 * Second)); end != Time(6*Second) || s.Live() != 1 {
		t.Fatalf("halted Run(100 s) = %d, live %d, want 6 s and the sleeper parked", end, s.Live())
	}
}

func TestWaitQueueWakeOneIsFIFO(t *testing.T) {
	s := New(1)
	var q WaitQueue
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(Millisecond)
		for q.Len() > 0 {
			q.WakeOne(p.Sim())
			p.Sleep(Millisecond)
		}
	})
	s.Run(Time(Second))
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("order = %v", order)
	}
	if s.Live() != 0 {
		t.Fatalf("live procs = %d", s.Live())
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	s := New(1)
	r := NewResource(2)
	inUse, maxUse := 0, 0
	for i := 0; i < 6; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			inUse++
			if inUse > maxUse {
				maxUse = inUse
			}
			p.Sleep(10 * Millisecond)
			inUse--
			r.Release(p.Sim())
		})
	}
	s.Run(Time(Second))
	if maxUse != 2 {
		t.Fatalf("max concurrent = %d, want 2", maxUse)
	}
	if s.Live() != 0 {
		t.Fatalf("live procs = %d", s.Live())
	}
}

func TestResourceAcquireReportsWait(t *testing.T) {
	s := New(1)
	r := NewResource(1)
	var waited Duration
	s.Spawn("first", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(20 * Millisecond)
		r.Release(p.Sim())
	})
	s.Spawn("second", func(p *Proc) {
		p.Sleep(Millisecond)
		waited = r.Acquire(p)
		r.Release(p.Sim())
	})
	s.Run(Time(Second))
	if waited != 19*Millisecond {
		t.Fatalf("waited = %v, want 19ms", waited)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []int64 {
		s := New(42)
		var out []int64
		for i := 0; i < 5; i++ {
			s.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(p.RNG().Int64n(int64(Millisecond))))
					out = append(out, int64(p.Now()))
				}
			})
		}
		s.Run(Time(Second))
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := New(1)
	count := 0
	s.Spawn("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sim().Spawn("child", func(c *Proc) {
				c.Sleep(Millisecond)
				count++
			})
			p.Sleep(Millisecond)
		}
	})
	s.Run(Time(Second))
	if count != 3 {
		t.Fatalf("children ran = %d, want 3", count)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(7)
	z := NewZipf(1000, 0.99)
	counts := make(map[int64]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := z.Next(g)
		if v < 0 || v >= 1000 {
			t.Fatalf("draw out of range: %d", v)
		}
		counts[v]++
	}
	// The hottest item should receive far more than the uniform share.
	if counts[0] < draws/100 {
		t.Fatalf("item 0 drawn %d times, expected heavy skew", counts[0])
	}
}

func TestZipfInRangeProperty(t *testing.T) {
	g := NewRNG(11)
	f := func(nRaw uint16, seed int64) bool {
		n := int64(nRaw%5000) + 1
		z := NewZipf(n, 0.8)
		for i := 0; i < 50; i++ {
			v := z.Next(g)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGHelpersWithinBounds(t *testing.T) {
	g := NewRNG(3)
	f := func(span int16) bool {
		n := int64(span&0x7fff) + 1
		v := g.Int64n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v := g.Exp(5); v < 0 || math.IsNaN(v) {
			t.Fatalf("Exp produced %v", v)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRNG(9)
	b := a.Fork()
	c := a.Fork()
	if b.Int63() == c.Int63() {
		t.Fatal("forked streams identical on first draw")
	}
}

func TestWaitTimeout(t *testing.T) {
	s := New(1)
	var q WaitQueue
	var timedOut, wokenOut bool
	s.Spawn("sleeper", func(p *Proc) {
		timedOut = q.WaitTimeout(p, 10*Millisecond)
	})
	s.Run(Time(Second))
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if q.Len() != 0 {
		t.Fatal("timed-out waiter left in queue")
	}
	// A waiter woken before the deadline reports no timeout, and its
	// stale timeout event must not disturb a later park.
	var secondWake Time
	s.Spawn("w", func(p *Proc) {
		wokenOut = q.WaitTimeout(p, 50*Millisecond)
		p.Sleep(200 * Millisecond) // stale timeout would fire during this
		secondWake = p.Now()
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		q.WakeOne(p.Sim())
	})
	start := s.Now()
	s.Run(Time(10 * Second))
	if wokenOut {
		t.Fatal("woken waiter reported timeout")
	}
	if got := secondWake - start; got != Time(205*Millisecond) {
		t.Fatalf("stale timeout disturbed later sleep: woke after %v", Duration(got))
	}
}

// refHeap is a container/heap over the kernel's event order: the reference
// the typed 4-ary heap is checked against.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

func TestEventHeapPopsInTimeSeqOrderProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g := rand.New(rand.NewSource(seed))
		s := New(1)
		var ref refHeap
		popSame := func(want event) bool {
			got := s.events[0]
			s.pop()
			return got.at == want.at && got.seq == want.seq
		}
		for i := uint64(1); i <= 3000; i++ {
			if g.Intn(3) == 0 && len(ref) > 0 {
				if !popSame(heap.Pop(&ref).(event)) {
					return false
				}
				continue
			}
			// Few distinct times, so most comparisons fall through to seq.
			e := event{at: Time(g.Intn(40)), seq: i}
			s.push(e)
			heap.Push(&ref, e)
		}
		rest := append([]event(nil), s.events...)
		sort.Slice(rest, func(i, j int) bool { return rest[i].before(&rest[j]) })
		for _, want := range rest {
			if !popSame(want) {
				return false
			}
		}
		return len(s.events) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// resumeRec is one line of a scenario trace: proc who gained control at now.
type resumeRec struct {
	now  Time
	what string // "<proc>: <what it had been doing>"
}

// spawnTraceScenario starts procs that between them use every kernel
// primitive and returns the trace they write: one record every time a proc
// gains control — at its start and after each blocking call — so the trace
// length is the number of events delivered. It needs 100 ms of simulated
// time.
func spawnTraceScenario(s *Sim) *[]resumeRec {
	var trace []resumeRec
	spawn := func(name string, fn func(p *Proc, rec func(string))) {
		s.Spawn(name, func(p *Proc) {
			rec := func(what string) { trace = append(trace, resumeRec{p.Now(), name + ": " + what}) }
			rec("start")
			fn(p, rec)
		})
	}
	for _, c := range []struct {
		name string
		d    Duration
		n    int
	}{{"sleep7", 7 * Millisecond, 5}, {"sleep3", 3 * Millisecond, 10}, {"sleep3b", 3 * Millisecond, 10}} {
		c := c
		spawn(c.name, func(p *Proc, rec func(string)) {
			for i := 0; i < c.n; i++ {
				p.Sleep(c.d)
				rec("slept")
			}
		})
	}
	spawn("sleep0", func(p *Proc, rec func(string)) {
		for i := 0; i < 3; i++ {
			p.Sleep(0)
			rec("slept 0")
		}
		p.Sleep(3 * Millisecond) // lands on the instant sleep3 and sleep3b wake
		rec("slept")
		p.Sleep(0)
		rec("slept 0 late")
	})
	var never, early, all WaitQueue
	spawn("timeout", func(p *Proc, rec func(string)) {
		rec(fmt.Sprint("timed out ", never.WaitTimeout(p, 10*Millisecond)))
	})
	spawn("woken", func(p *Proc, rec func(string)) {
		rec(fmt.Sprint("timed out ", early.WaitTimeout(p, 50*Millisecond)))
		p.Sleep(60 * Millisecond) // the stale timeout wakeup falls inside this sleep
		rec("slept")
	})
	spawn("waker", func(p *Proc, rec func(string)) {
		p.Sleep(5 * Millisecond)
		rec(fmt.Sprint("woke one ", early.WakeOne(s)))
		p.Sleep(15 * Millisecond)
		all.WakeAll(s)
		rec("woke all")
	})
	for _, name := range []string{"all1", "all2"} {
		spawn(name, func(p *Proc, rec func(string)) {
			all.Wait(p)
			rec("woken")
		})
	}
	r := NewResource(1)
	for _, name := range []string{"res1", "res2", "res3"} {
		spawn(name, func(p *Proc, rec func(string)) {
			if wait := r.Acquire(p); wait > 0 { // parked once, behind the holder
				rec(fmt.Sprintf("acquired after %dms", wait/Millisecond))
			}
			p.Sleep(4 * Millisecond)
			rec("held")
			r.Release(s)
		})
	}
	spawn("parent", func(p *Proc, rec func(string)) {
		p.Sleep(2 * Millisecond)
		rec("slept")
		spawn("child", func(p *Proc, rec func(string)) {
			p.Sleep(Millisecond)
			rec("slept")
			spawn("grandchild", func(*Proc, func(string)) {})
		})
	})
	var forever WaitQueue
	spawn("forever", func(p *Proc, rec func(string)) {
		forever.Wait(p)
		rec("woken") // never
	})
	return &trace
}

const traceScenarioEnd = Time(100 * Millisecond)

func TestEventTraceIndependentOfRunWindows(t *testing.T) {
	whole := New(1)
	want := spawnTraceScenario(whole)
	whole.Run(traceScenarioEnd)
	if whole.Live() != 1 { // "forever"
		t.Fatalf("%d procs live after the scenario, want 1", whole.Live())
	}
	for _, windows := range []Time{4, 50, 100_000} {
		s := New(1)
		got := spawnTraceScenario(s)
		for k := Time(1); k <= windows; k++ {
			if end := s.Run(traceScenarioEnd * k / windows); end != traceScenarioEnd*k/windows {
				t.Fatalf("Run returned %d, want %d", end, traceScenarioEnd*k/windows)
			}
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("%d windows: trace differs from one Run:\n%v\nwant\n%v", windows, *got, *want)
		}
	}
	// The trace itself: wait outcomes, and no stale timeout wakeup — "woken"
	// left its queue at 5 ms, its timeout event (50 ms) must not cut the
	// 60 ms sleep short.
	at := make(map[string]Time)
	for _, r := range *want {
		at[r.what] = r.now
	}
	for what, when := range map[string]Duration{
		"timeout: timed out true":  10 * Millisecond,
		"woken: timed out false":   5 * Millisecond,
		"woken: slept":             65 * Millisecond,
		"all1: woken":              20 * Millisecond,
		"all2: woken":              20 * Millisecond,
		"res3: acquired after 8ms": 8 * Millisecond,
		"grandchild: start":        3 * Millisecond,
	} {
		if now, ok := at[what]; !ok || now != Time(when) {
			t.Errorf("%q at %d (recorded: %v), want %d", what, now, ok, when)
		}
	}
	if now, ok := at["forever: woken"]; ok {
		t.Errorf("proc parked on an unwoken queue ran at %d", now)
	}
}

func TestRunRegainsControlWhenNothingCanRun(t *testing.T) {
	// A proc that finishes as the very last event hands control back.
	s := New(1)
	s.Spawn("last", func(p *Proc) { p.Sleep(Millisecond) })
	if end := s.Run(Time(Second)); end != Time(Second) || s.Live() != 0 {
		t.Fatalf("end = %d, live = %d", end, s.Live())
	}
	// So does one that parks with no wakeup pending anywhere.
	var q WaitQueue
	woken := false
	s.Spawn("parked", func(p *Proc) {
		q.Wait(p)
		woken = true
	})
	if end := s.Run(Time(2 * Second)); end != Time(2*Second) || s.Live() != 1 {
		t.Fatalf("end = %d, live = %d", end, s.Live())
	}
	// Waking it from outside Run is delivered by the next Run.
	q.WakeOne(s)
	s.Run(Time(3 * Second))
	if !woken || s.Live() != 0 {
		t.Fatalf("woken = %v, live = %d", woken, s.Live())
	}
}

func TestParkOutsideRunPanics(t *testing.T) {
	s := New(1)
	var parked *Proc
	s.Spawn("p", func(p *Proc) { parked = p; p.Sleep(Second) })
	s.Run(Time(Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep on a proc that is not running did not panic")
		}
	}()
	parked.Sleep(Millisecond)
}

func TestRunFromInsideAProcPanics(t *testing.T) {
	s := New(1)
	var msg any
	s.Spawn("nester", func(p *Proc) {
		defer func() { msg = recover() }()
		s.Run(Time(Second))
	})
	s.Run(Time(Second))
	if !strings.Contains(fmt.Sprint(msg), `Run called from inside proc "nester"`) {
		t.Fatalf("nested Run: recovered %v", msg)
	}
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}

// detonate is the helper whose frame a proc's panic report must keep.
func detonate() { panic("boom") }

func TestProcPanicNamesTheProcAndWhereItPanicked(t *testing.T) {
	s := New(1)
	s.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	s.Spawn("bomber", func(p *Proc) {
		p.Sleep(Millisecond)
		detonate()
	})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Run(Time(Second))
	}()
	for _, want := range []string{`sim: proc "bomber" panicked: boom`, "sim.detonate"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic from Run does not contain %q:\n%s", want, msg)
		}
	}
}

func TestGoexitInAProcLeavesRunViaGoexit(t *testing.T) {
	how := make(chan string, 1)
	go func() {
		returned := false
		defer func() {
			switch {
			case recover() != nil:
				how <- "panic"
			case returned:
				how <- "return"
			default:
				how <- "Goexit"
			}
		}()
		s := New(1)
		s.Spawn("quitter", func(p *Proc) {
			p.Sleep(Millisecond)
			runtime.Goexit() // what t.Fatal does
		})
		s.Run(Time(Second))
		returned = true
	}()
	if got := <-how; got != "Goexit" {
		t.Fatalf("Run's caller left by %s after its proc called Goexit", got)
	}
}

func TestFinishedProcsHandTheirCarriersOn(t *testing.T) {
	const n = 64 // live at once, so a round needs n carriers
	round := func(s *Sim) {
		for i := 0; i < n; i++ {
			s.Spawn("short", func(p *Proc) { p.Sleep(Microsecond) })
		}
		s.Run(s.Now() + Time(Millisecond))
		if s.Live() != 0 {
			t.Fatalf("%d procs still live", s.Live())
		}
	}
	round(New(1))
	before := runtime.NumGoroutine()
	s := New(2)
	round(s)
	// Below zero is an earlier test's goroutine still exiting.
	if d := runtime.NumGoroutine() - before; d > 0 {
		t.Errorf("a second round of %d procs started %d goroutines, want 0", n, d)
	}
	lifetime := func() {
		s.Spawn("once", func(p *Proc) { p.Sleep(Microsecond) })
		s.Run(s.Now() + Time(Millisecond))
	}
	if avg := testing.AllocsPerRun(100, lifetime); avg != 1 {
		t.Errorf("%v allocs per proc spawned and run to its return, want 1 (the Proc)", avg)
	}
}

// churn runs parents that keep spawning short-lived children, so carriers
// go back to the free list and out again all through the run, and returns
// the children's finishing times.
func churn(seed int64) []Time {
	s := New(seed)
	var out []Time
	for i := 0; i < 8; i++ {
		s.Spawn("parent", func(p *Proc) {
			for j := 0; j < 20; j++ {
				s.Spawn("child", func(c *Proc) {
					c.Sleep(Duration(c.RNG().Int64n(int64(Millisecond))))
					out = append(out, c.Now())
				})
				p.Sleep(Duration(p.RNG().Int64n(int64(Millisecond))))
			}
		})
	}
	s.Run(Time(Second))
	return out
}

func TestSimsOnSeveralGoroutinesShareTheFreeList(t *testing.T) {
	want := churn(1)
	const workers, runs = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if got := churn(1); !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d run %d: trace differs from the serial run", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// pingPong spawns two procs that sleep in step until *stop, so that every
// event is a hand-off from one to the other, and returns their resume count.
func pingPong(s *Sim, stop *bool) *int64 {
	resumes := new(int64)
	for i := 0; i < 2; i++ {
		s.Spawn("pp", func(p *Proc) {
			for *resumes++; !*stop; *resumes++ {
				p.Sleep(Microsecond)
			}
		})
	}
	return resumes
}

func TestHandoffAllocatesNothing(t *testing.T) {
	s := New(1)
	stop := false
	pingPong(s, &stop)
	window := func() { s.Run(s.Now() + Time(100*Microsecond)) }
	if avg := testing.AllocsPerRun(50, window); avg != 0 {
		t.Errorf("%v allocs per 200 hand-offs, want 0", avg)
	}
	stop = true
	window()
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}

func profCounts(t *testing.T) (loopNs, procNs, procCalls int64) {
	t.Helper()
	for _, st := range ProfSnapshot() {
		switch st.Name {
		case ProfLoop.Name:
			loopNs = st.WallNs
		case ProfProc.Name:
			procNs, procCalls = st.WallNs, st.Calls
		}
	}
	return
}

func TestProfilingCountsEveryResumeAndFitsInsideRun(t *testing.T) {
	plain := New(1)
	want := spawnTraceScenario(plain)
	plain.Run(traceScenarioEnd)

	EnableProfiling()
	defer DisableProfiling()
	loop0, proc0, calls0 := profCounts(t)
	s := New(1)
	got := spawnTraceScenario(s)
	stop := false
	resumes := pingPong(s, &stop)    // hand-offs
	s.Spawn("alone", func(p *Proc) { // self-resumes once the others are done
		for *resumes++; p.Now() < 2*traceScenarioEnd; *resumes++ {
			p.Sleep(Millisecond)
		}
	})
	t0 := time.Now()
	s.Run(traceScenarioEnd)
	stop = true
	s.Run(3 * traceScenarioEnd)
	wall := int64(time.Since(t0))
	loop1, proc1, calls1 := profCounts(t)

	if !reflect.DeepEqual(*got, *want) {
		t.Errorf("trace with profiling on differs:\n%v\nwant\n%v", *got, *want)
	}
	if n := int64(len(*got)) + *resumes; calls1-calls0 != n {
		t.Errorf("sim.proc calls = %d, counted %d resumes", calls1-calls0, n)
	}
	if loop1 <= loop0 || proc1 <= proc0 {
		t.Errorf("phase walls did not advance: loop %d, proc %d", loop1-loop0, proc1-proc0)
	}
	if sum := (loop1 - loop0) + (proc1 - proc0); sum > wall {
		t.Errorf("sim.loop + sim.proc = %d ns, more than the %d ns Run took", sum, wall)
	}
}

// TestProfStopTakesOutTheClockRead: a timed stretch counts what elapsed
// less one calibrated clock read, profEvery times, and never less than 0.
func TestProfStopTakesOutTheClockRead(t *testing.T) {
	if c := calibrateProfClock(); c < 0 || c > ProfMark(100*time.Microsecond) {
		t.Fatalf("one clock read calibrated at %d ns", c)
	}
	defer profClock.Store(profClock.Load())
	s := New(1)
	wall := func(clock, ago time.Duration) time.Duration {
		profClock.Store(int64(clock))
		before := s.tally[ProfCache.slot].wall
		s.profStop(ProfCache, profNow()-ProfMark(ago))
		return s.tally[ProfCache.slot].wall - before
	}
	if w := wall(time.Hour, time.Millisecond); w != 0 {
		t.Errorf("a stretch shorter than a clock read counts %v, want 0", w)
	}
	const ago, clock = 10 * time.Millisecond, 4 * time.Millisecond
	if w := wall(clock, ago); w < profEvery*(ago-clock) || w >= profEvery*ago {
		t.Errorf("a %v stretch less a %v read counts %v, want %d × at least %v and below %v", ago, clock, w, profEvery, ago-clock, ago)
	}
}

// vacated reports whether every slot of the queue's backing array past its
// length is nil: a dequeued proc must not stay reachable through it.
func vacated(q *WaitQueue) bool {
	for _, p := range q.procs[len(q.procs):cap(q.procs)] {
		if p != nil {
			return false
		}
	}
	return true
}

func TestWakeUpToWakesCoveredWaitersInQueueOrder(t *testing.T) {
	s := New(1)
	var q WaitQueue
	var woke []int64
	// Parked in this order: the queue is not sorted by key.
	for _, key := range []int64{30, 10, 40, 20, 10} {
		s.Spawn("w", func(p *Proc) {
			before := p.Resumes()
			q.WaitKey(p, key)
			if n := p.Resumes() - before; n != 1 {
				t.Errorf("key %d resumed %d times in one wait", key, n)
			}
			woke = append(woke, key)
		})
	}
	step := func(wake func(), want ...int64) {
		t.Helper()
		woke = woke[:0]
		s.Spawn("waker", func(p *Proc) { wake() })
		s.Run(s.Now() + Time(Millisecond))
		if fmt.Sprint(woke) != fmt.Sprint(want) {
			t.Fatalf("woke %v, want %v", woke, want)
		}
		if !vacated(&q) {
			t.Fatal("a woken proc is still reachable from the queue's backing array")
		}
	}
	step(func() { q.WakeUpTo(s, 5) })
	step(func() { q.WakeUpTo(s, 20) }, 10, 20, 10)
	if q.Len() != 2 {
		t.Fatalf("%d left parked, want 2", q.Len())
	}
	step(func() { q.WakeUpTo(s, 29) })
	step(func() { q.WakeUpTo(s, 30) }, 30)
	step(func() { q.WakeAll(s) }, 40)
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}

func TestDequeueClearsTheVacatedSlot(t *testing.T) {
	s := New(1)
	var q WaitQueue
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) { q.Wait(p) })
	}
	s.Spawn("t", func(p *Proc) { q.WaitTimeout(p, Millisecond) })
	s.Run(Time(2 * Millisecond)) // the timed wait expires and removes itself
	if q.Len() != 3 || !vacated(&q) {
		t.Fatalf("after timeout: len %d, vacated %v", q.Len(), vacated(&q))
	}
	q.WakeOne(s)
	if q.Len() != 2 || !vacated(&q) {
		t.Fatalf("after WakeOne: len %d, vacated %v", q.Len(), vacated(&q))
	}
	q.WakeAll(s)
	if q.Len() != 0 || !vacated(&q) {
		t.Fatalf("after WakeAll: len %d, vacated %v", q.Len(), vacated(&q))
	}
	s.Run(Time(Second))
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
}

// timeoutHerd is repl.commitWait's pattern at the kernel: n procs loop on
// one queue re-arming a 10 s timeout, and a ticker wakes them all every
// 50 µs, so every wait is woken and every timeout wakeup is left behind,
// stale, ten simulated seconds ahead of the clock. It runs until *stop and
// returns the herd's wake count; onTick runs after each WakeAll, when the
// heap is at its fullest.
func timeoutHerd(s *Sim, n int, stop *bool, onTick func()) *int64 {
	wakes := new(int64)
	var q WaitQueue
	for i := 0; i < n; i++ {
		s.Spawn("herd", func(p *Proc) {
			for !*stop {
				if q.WaitTimeout(p, 10*Second) {
					panic("herd wait timed out")
				}
				*wakes++
			}
		})
	}
	s.Spawn("ticker", func(p *Proc) {
		for !*stop {
			p.Sleep(50 * Microsecond)
			q.WakeAll(s)
			onTick()
		}
	})
	return wakes
}

// staleQueued counts the stale events in both queues, which s.dead tracks.
func staleQueued(s *Sim) int {
	n := 0
	for _, q := range [][]event{s.events, s.ready[s.rhead:]} {
		for i := range q {
			if q[i].stale() {
				n++
			}
		}
	}
	return n
}

func TestWokenTimeoutsDoNotPileUpInTheHeap(t *testing.T) {
	const procs = 128
	// Wakeups that can still fire: a parked waiter's timeout, plus its wake
	// between the WakeAll and its resume, plus the ticker's sleep.
	const live = 2*procs + 1
	s := New(1)
	stop := false
	peak := 0
	wakes := timeoutHerd(s, procs, &stop, func() {
		if n := s.queued(); n > peak {
			peak = n
		}
	})
	window := func() { s.Run(s.Now() + Time(Millisecond)) } // 20 ticks
	for *wakes < 100_000 {
		window()
	}
	if bound := 2*live + 64; peak > bound {
		t.Errorf("event queues peaked at %d entries after %d woken timeouts, want at most %d", peak, *wakes, bound)
	}
	if got := staleQueued(s); s.dead != got {
		t.Errorf("dead = %d with %d stale events queued", s.dead, got)
	}
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("%v allocs per 20 ticks of the herd, want 0", avg)
	}
	stop = true
	window()
	if s.Live() != 0 {
		t.Fatalf("%d procs still live", s.Live())
	}
	s.sweep()
	if len(s.events) != 0 || len(s.ready) != 0 || s.dead != 0 {
		t.Errorf("after the last proc left and a sweep: %d events, %d ready, dead = %d", len(s.events), len(s.ready), s.dead)
	}
}

func TestDeadCountIsClampedAtZero(t *testing.T) {
	// A wakeup that went stale without passing through noteDead — no kernel
	// primitive leaves one today — is still discarded, and is not counted.
	s := New(1)
	var woke Time
	sleeper := s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		woke = p.Now()
		p.Sleep(10 * Millisecond)
	})
	s.Run(Time(Millisecond))
	s.schedule(Time(10*Millisecond), sleeper) // loses to the Sleep's own wakeup
	s.Run(Time(Second))
	if woke != Time(10*Millisecond) || s.Live() != 0 {
		t.Fatalf("woke at %d, %d procs live", woke, s.Live())
	}
	if s.dead != 0 || len(s.events) != 0 || len(s.ready) != 0 {
		t.Errorf("dead = %d, %d events and %d ready queued, want 0, 0 and 0", s.dead, len(s.events), len(s.ready))
	}
}

// spawnSweepMix starts a seeded mix of procs that wait with timeouts (short
// ones expire, 10 s ones are woken and leave their timeout behind), wait
// untimed and keyed, wake each other, sleep, spawn children and exit with
// timers pending, next to a ticker that keeps wakes coming for 5 ms. It
// returns the (time, proc, outcome) trace; check runs at every record.
func spawnSweepMix(s *Sim, seed int64, check func()) *[]resumeRec {
	var trace []resumeRec
	var qs [3]WaitQueue
	var keyed WaitQueue // WakeUpTo's queue: WaitKey waiters only
	wake := func(g *rand.Rand) string {
		q := &qs[g.Intn(len(qs))]
		switch g.Intn(3) {
		case 0:
			return fmt.Sprint("woke one ", q.WakeOne(s))
		case 1:
			q.WakeAll(s)
			return "woke all"
		}
		keyed.WakeUpTo(s, int64(g.Intn(100)))
		return "woke keyed"
	}
	var spawn func(name string, g *rand.Rand, steps int)
	spawn = func(name string, g *rand.Rand, steps int) {
		s.Spawn(name, func(p *Proc) {
			rec := func(what string) {
				trace = append(trace, resumeRec{p.Now(), name + ": " + what})
				check()
			}
			rec("start")
			for i := 0; i < steps; i++ {
				q := &qs[g.Intn(len(qs))]
				switch g.Intn(8) {
				case 0:
					p.Sleep(Duration(g.Intn(2000)) * Microsecond)
					rec("slept")
				case 1, 2, 3:
					d := 10 * Second
					if g.Intn(3) == 0 {
						d = Duration(1+g.Intn(100)) * Microsecond
					}
					rec(fmt.Sprint("timed out ", q.WaitTimeout(p, d)))
				case 4:
					q.Wait(p)
					rec("woken")
				case 5:
					keyed.WaitKey(p, int64(g.Intn(100)))
					rec("woken by key")
				case 6:
					rec(wake(g))
				case 7:
					spawn(fmt.Sprint(name, ".", i), rand.New(rand.NewSource(g.Int63())), steps/2)
				}
			}
		})
	}
	g := rand.New(rand.NewSource(seed))
	for i := 0; i < 24; i++ {
		spawn(fmt.Sprint("p", i), rand.New(rand.NewSource(g.Int63())), 32)
	}
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 250; i++ {
			p.Sleep(20 * Microsecond)
			wake(g)
		}
	})
	return &trace
}

func TestSweepIsInvisibleToTheSimulationProperty(t *testing.T) {
	type outcome struct {
		trace []resumeRec
		seq   uint64
		now   Time
		live  int
	}
	sweeps := 0
	run := func(seed int64, due func(dead, queued int) bool) outcome {
		s := New(1)
		s.sweepDue = func(dead, queued int) bool {
			if !due(dead, queued) {
				return false
			}
			sweeps++
			return true
		}
		records, miscounted := 0, false
		trace := spawnSweepMix(s, seed, func() {
			if records++; records%16 != 0 { // staleQueued walks both queues
				return
			}
			if got := staleQueued(s); s.dead != got && !miscounted {
				miscounted = true
				t.Errorf("seed %d: dead = %d with %d stale events queued", seed, s.dead, got)
			}
		})
		// In two windows, the second past the 10 s timeouts: the stale ones
		// that were never swept are discarded as the clock reaches them, and
		// the waits nobody woke time out.
		s.Run(Time(Second))
		s.Run(Time(30 * Second))
		return outcome{*trace, s.seq, s.Now(), s.Live()}
	}
	never := func(int, int) bool { return false }
	always := func(int, int) bool { return true }
	prop := func(seed int64) bool {
		want := run(seed, never)
		sweeps = 0
		for _, due := range []func(int, int) bool{defaultSweepDue, always} {
			before := sweeps
			if got := run(seed, due); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: sweeping changed the run: %d records, seq %d, now %d, live %d; want %d, %d, %d, %d",
					seed, len(got.trace), got.seq, got.now, got.live, len(want.trace), want.seq, want.now, want.live)
				return false
			}
			if sweeps == before {
				t.Errorf("seed %d: the mix never made a sweep due", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
