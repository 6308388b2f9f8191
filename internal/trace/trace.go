// Package trace implements per-query span tracing on the simulated
// clock: each executed statement gets a tree of operator spans recording
// actual rows, simulated elapsed time, buffer traffic, spills, and wait
// deltas, yielding an EXPLAIN-ANALYZE-style actual-versus-estimated plan
// report — the per-operator attribution Sirin & Ailamaki perform for
// OLAP micro-architectural analysis, and the surface MAXDOP tuners (Fan
// et al.) consume. Tracing is opt-in: the executor skips all span work
// when no Trace is attached, so default runs pay nothing.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Span is one operator's execution record. Times and counter deltas are
// inclusive of the operator's children (the span covers the subtree the
// way showplan actual-stats rows do); Self* accessors subtract children.
type Span struct {
	Op       string  // operator name, e.g. "Hash Join"
	Name     string  // object label (table/index), if any
	Parallel bool    // ran with the plan's DOP
	EstRows  float64 // optimizer's nominal output-cardinality estimate
	ActRows  int64   // actual rows emitted
	NomRows  int64   // nominal rows represented (ActRows * Weight)
	Batches  int64   // column batches emitted

	Start, End sim.Time

	// Counter deltas attributed to the statement while the span was open
	// (inclusive of children): buffer traffic, spills, device I/O, waits.
	BufferHits   int64
	BufferMisses int64
	Spills       int64
	SSDReadBytes int64
	WaitNs       [metrics.NumWaitClasses]int64

	Children []*Span

	snap metrics.Counters // statement counters at Enter
}

// Elapsed returns the span's inclusive simulated duration.
func (s *Span) Elapsed() sim.Duration { return sim.Duration(s.End - s.Start) }

// SelfElapsed returns the span's duration minus its children's.
func (s *Span) SelfElapsed() sim.Duration {
	d := s.Elapsed()
	for _, c := range s.Children {
		d -= c.Elapsed()
	}
	if d < 0 {
		d = 0
	}
	return d
}

// TotalWaitNs returns the sum across wait classes.
func (s *Span) TotalWaitNs() int64 {
	var t int64
	for _, ns := range s.WaitNs {
		t += ns
	}
	return t
}

// Trace is one statement's span tree plus its attributed counter set.
type Trace struct {
	Query string
	Stmt  *metrics.Counters // statement-attributed counters (shared with the engine)
	Root  *Span

	stack []*Span
}

// New creates a trace for the labelled statement. Stmt may be nil; span
// counter deltas are then zero and only rows/timing are recorded.
func New(query string, stmt *metrics.Counters) *Trace {
	return &Trace{Query: query, Stmt: stmt}
}

// Enter opens a span under the current innermost open span. Only the
// query coordinator walks the plan tree, so the stack needs no locking.
func (t *Trace) Enter(op, name string, parallel bool, estRows float64, now sim.Time) *Span {
	sp := &Span{Op: op, Name: name, Parallel: parallel, EstRows: estRows, Start: now}
	if t.Stmt != nil {
		sp.snap = *t.Stmt
	}
	if len(t.stack) == 0 {
		t.Root = sp
	} else {
		top := t.stack[len(t.stack)-1]
		top.Children = append(top.Children, sp)
	}
	t.stack = append(t.stack, sp)
	return sp
}

// Exit closes the span, recording output rows and the statement counter
// deltas accumulated while it was open.
func (t *Trace) Exit(sp *Span, actRows, nomRows int64, now sim.Time) {
	sp.ActRows = actRows
	sp.NomRows = nomRows
	sp.End = now
	if t.Stmt != nil {
		d := t.Stmt.Sub(sp.snap)
		sp.BufferHits = d.BufferHits
		sp.BufferMisses = d.BufferMisses
		sp.Spills = d.Spills
		sp.SSDReadBytes = d.SSDReadBytes
		sp.WaitNs = d.WaitNs
	}
	if len(t.stack) > 0 && t.stack[len(t.stack)-1] == sp {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// Elapsed returns the root span's duration (0 before the trace closes).
func (t *Trace) Elapsed() sim.Duration {
	if t.Root == nil {
		return 0
	}
	return t.Root.Elapsed()
}

// Render pretty-prints the actual-execution plan followed by the
// statement's wait breakdown, EXPLAIN ANALYZE style.
func (t *Trace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- actual plan: %s --\n", t.Query)
	if t.Root != nil {
		renderSpan(&b, t.Root, 0)
	}
	if t.Stmt != nil {
		b.WriteString(t.renderWaits())
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if s.Parallel {
		b.WriteString("⇉ ")
	} else {
		b.WriteString("→ ")
	}
	b.WriteString(s.Op)
	if s.Name != "" {
		fmt.Fprintf(b, " [%s]", s.Name)
	}
	fmt.Fprintf(b, " (est %.3g rows, act %d rows, %.3fms", s.EstRows, s.ActRows, s.Elapsed().Seconds()*1e3)
	if s.Batches > 0 {
		fmt.Fprintf(b, ", %d batches", s.Batches)
	}
	if s.BufferHits > 0 || s.BufferMisses > 0 {
		fmt.Fprintf(b, ", buf %d/%d hit", s.BufferHits, s.BufferHits+s.BufferMisses)
	}
	if s.Spills > 0 {
		fmt.Fprintf(b, ", spills %d", s.Spills)
	}
	if w := s.TotalWaitNs(); w > 0 {
		fmt.Fprintf(b, ", wait %.3fms", float64(w)/1e6)
	}
	b.WriteString(")\n")
	for _, c := range s.Children {
		renderSpan(b, c, depth+1)
	}
}

// renderWaits renders the statement-level wait-class breakdown.
func (t *Trace) renderWaits() string {
	var b strings.Builder
	total := int64(0)
	for _, ns := range t.Stmt.WaitNs {
		total += ns
	}
	fmt.Fprintf(&b, "-- waits: %.3fms total --\n", float64(total)/1e6)
	for c := metrics.WaitClass(0); c < metrics.NumWaitClasses; c++ {
		ns := t.Stmt.WaitNs[c]
		if ns == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-20s %10.3fms\n", c.String(), float64(ns)/1e6)
	}
	return b.String()
}
