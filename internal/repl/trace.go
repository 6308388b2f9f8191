package repl

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Cross-node commit tracing: when Config.TraceCommits is set, the first
// maxCommitTraces sync/quorum commits record per-standby timestamps as
// their records flow primary → link → standby WAL → apply, and the
// acknowledgement wait resolves. Each traced commit yields a span tree
// (trace.Span, the same type the per-operator tracer uses) whose root
// covers the whole observed commit latency and whose children decompose
// it per standby into ship (link serve + latency), replica-WAL (standby
// append + flush), and apply (redo through the standby buffer pool),
// plus the acknowledgement trip back.
//
// All hooks are passive timestamp reads on paths that already run; a
// cluster with tracing off keeps pendingTraces empty and every hook
// reduces to one empty-slice check, preserving bit-identical behavior.

// maxCommitTraces bounds retained traces (the first N commits).
const maxCommitTraces = 64

// standbyTimes are one standby's observed timestamps for a traced commit.
type standbyTimes struct {
	shipped  sim.Time // delivery of the batch containing the commit LSN
	durable  sim.Time // standby WAL flushed past the commit LSN (ack basis)
	applyEnd sim.Time // end of the applier iteration that covered it

	hasShipped, hasDurable, hasApplyEnd bool
}

// commitTrace is one traced commit's cross-node timeline.
type commitTrace struct {
	lsn      int64
	start    sim.Time // commitWait entry (local commit durable, locks held)
	quorumAt sim.Time // enough standbys durable; ack trip begins
	ackAt    sim.Time // commitWait return
	ok       bool     // acknowledged (false: timeout/shutdown)
	done     bool     // commitWait returned
	per      []standbyTimes
}

// traceRegister opens a trace for a commit entering commitWait. Standbys
// already past the LSN get zero-length phases anchored at start.
func (c *Cluster) traceRegister(lsn int64, now sim.Time) *commitTrace {
	if !c.Cfg.TraceCommits || len(c.pendingTraces)+len(c.commitTraces) >= maxCommitTraces {
		return nil
	}
	ct := &commitTrace{lsn: lsn, start: now, per: make([]standbyTimes, len(c.Standbys))}
	for i, s := range c.Standbys {
		st := &ct.per[i]
		if s.Srv.Log.FlushedLSN() >= lsn {
			st.shipped, st.hasShipped = now, true
			st.durable, st.hasDurable = now, true
		}
		if s.appliedLSN >= lsn {
			st.applyEnd, st.hasApplyEnd = now, true
		}
	}
	c.pendingTraces = append(c.pendingTraces, ct)
	return ct
}

// traceShipped marks traced commits whose LSN is covered by a batch just
// delivered to standby idx.
func (c *Cluster) traceShipped(idx int, maxLSN int64, now sim.Time) {
	for _, ct := range c.pendingTraces {
		st := &ct.per[idx]
		if !st.hasShipped && ct.lsn <= maxLSN {
			st.shipped, st.hasShipped = now, true
		}
	}
}

// traceDurable marks traced commits now durable in standby idx's WAL.
func (c *Cluster) traceDurable(idx int, flushedLSN int64, now sim.Time) {
	for _, ct := range c.pendingTraces {
		st := &ct.per[idx]
		if !st.hasDurable && ct.lsn <= flushedLSN {
			st.durable, st.hasDurable = now, true
		}
	}
}

// traceApplyEnd marks the end of an applier iteration on standby idx: the
// instant the acknowledgement queue is woken, and the end of the apply
// phase for every traced commit the iteration covered.
func (c *Cluster) traceApplyEnd(idx int, appliedLSN int64, now sim.Time) {
	for _, ct := range c.pendingTraces {
		st := &ct.per[idx]
		if !st.hasApplyEnd && ct.lsn <= appliedLSN {
			st.applyEnd, st.hasApplyEnd = now, true
		}
	}
	c.reapTraces()
}

// traceResolve closes a trace as its commitWait returns.
func (c *Cluster) traceResolve(ct *commitTrace, quorumAt, ackAt sim.Time, ok bool) {
	if ct == nil {
		return
	}
	ct.quorumAt, ct.ackAt, ct.ok, ct.done = quorumAt, ackAt, ok, true
	c.commitTraces = append(c.commitTraces, ct)
	c.reapTraces()
}

// reapTraces drops fully-resolved traces from the pending list so the
// hook scans stay short.
func (c *Cluster) reapTraces() {
	live := c.pendingTraces[:0]
	for _, ct := range c.pendingTraces {
		resolved := ct.done
		for i := range ct.per {
			if !ct.per[i].hasApplyEnd {
				resolved = false
			}
		}
		if !resolved {
			live = append(live, ct)
		}
	}
	c.pendingTraces = live
}

// CommitTraces builds the span tree for every resolved traced commit, in
// commit order. The root span covers the full observed commit latency
// (entry to acknowledged); per-standby child spans decompose it into
// contiguous ship → replica-wal → apply phases, and an ack span covers
// the acknowledgement trip home. Timestamps a phase never reached clamp
// to the trace end, so partial traces (timeouts, shutdown) still render.
func (c *Cluster) CommitTraces() []*trace.Trace {
	out := make([]*trace.Trace, 0, len(c.commitTraces))
	for _, ct := range c.commitTraces {
		if !ct.done {
			continue
		}
		root := &trace.Span{Op: "Commit", Name: fmt.Sprintf("lsn=%d", ct.lsn), Start: ct.start, End: ct.ackAt}
		clamp := func(t sim.Time, has bool) sim.Time {
			if !has || t > ct.ackAt {
				return ct.ackAt
			}
			return t
		}
		for i := range ct.per {
			st := &ct.per[i]
			shipped := clamp(st.shipped, st.hasShipped)
			durable := clamp(st.durable, st.hasDurable)
			applyEnd := clamp(st.applyEnd, st.hasApplyEnd)
			sb := &trace.Span{Op: "Standby", Name: fmt.Sprintf("standby-%d", i), Start: ct.start, End: applyEnd}
			sb.Children = []*trace.Span{
				{Op: "Ship", Name: "link", Start: ct.start, End: shipped},
				{Op: "ReplicaWAL", Name: "flush", Start: shipped, End: durable},
				{Op: "Apply", Name: "redo", Start: durable, End: applyEnd},
			}
			root.Children = append(root.Children, sb)
		}
		root.Children = append(root.Children, &trace.Span{
			Op: "Ack", Name: "link", Start: clamp(ct.quorumAt, ct.ok), End: ct.ackAt,
		})
		out = append(out, &trace.Trace{Query: fmt.Sprintf("commit lsn=%d", ct.lsn), Root: root})
	}
	return out
}
