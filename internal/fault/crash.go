package fault

import "repro/internal/sim"

// CrashPoint names a deterministic crash site inside the engine. Crash
// points are hooks on the durability path: the engine calls Crasher.Hit
// at each site and the Nth hit of the selected point triggers the crash.
type CrashPoint int

// Crash points.
const (
	CrashNone          CrashPoint = iota
	CrashMidFlush                 // between the log device write and the flushed-LSN advance
	CrashMidCheckpoint            // between CKPT_BEGIN and CKPT_END, after a chunk write
	CrashAppendGap                // after a commit lump appends, before its flush wait
	CrashDuringUndo               // inside recovery's undo pass, between CLR batches
	CrashAtTime                   // at an absolute simulated time (At)
)

// String names the crash point.
func (c CrashPoint) String() string {
	switch c {
	case CrashNone:
		return "none"
	case CrashMidFlush:
		return "mid-flush"
	case CrashMidCheckpoint:
		return "mid-checkpoint"
	case CrashAppendGap:
		return "append-gap"
	case CrashDuringUndo:
		return "during-undo"
	case CrashAtTime:
		return "at-time"
	default:
		return "crash(?)"
	}
}

// CrashPlan selects one seeded crash. The plan is fully deterministic:
// the Nth hit of Point crashes (Nth <= 0 means the first), or, for
// CrashAtTime, the crash fires at simulated time At.
type CrashPlan struct {
	Point CrashPoint
	Nth   int
	At    sim.Duration // CrashAtTime only: crash at this simulated time
}

// Enabled reports whether the plan crashes at all.
func (p CrashPlan) Enabled() bool { return p.Point != CrashNone }

// Crasher counts crash-point hits and fires the trigger exactly once.
type Crasher struct {
	plan      CrashPlan
	hits      int
	triggered bool
	onTrigger func()
}

// NewCrasher builds a crasher for the plan; onTrigger is the engine's
// crash entry point (it must be safe to call from any proc).
func NewCrasher(plan CrashPlan, onTrigger func()) *Crasher {
	if plan.Nth <= 0 {
		plan.Nth = 1
	}
	return &Crasher{plan: plan, onTrigger: onTrigger}
}

// Hit reports a crash-point visit; it fires the trigger on the Nth visit
// of the planned point.
func (c *Crasher) Hit(p CrashPoint) {
	if c == nil || c.triggered || p != c.plan.Point {
		return
	}
	c.hits++
	if c.hits >= c.plan.Nth {
		c.triggered = true
		c.onTrigger()
	}
}
