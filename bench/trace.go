package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/sim"
)

// span is one timed call the benchmark made into a layer. Spans nest by
// call order, so a span's self time is its duration minus its children's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // host ns since the tracer was made
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"`
	// Prof is the simulator self-profile's change across the span:
	// phase name -> {host wall ns, entries}.
	Prof map[string][2]int64 `json:"prof,omitempty"`
}

// tracer records benchmark-side spans in memory. A nil tracer is the
// untraced path: do just calls fn.
type tracer struct {
	epoch    time.Time
	workload string
	rep      int
	spans    []span
	stack    []int // indexes into spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func profNow() map[string][2]int64 {
	m := make(map[string][2]int64, 5)
	for _, s := range sim.ProfSnapshot() {
		m[s.Name] = [2]int64{s.WallNs, s.Calls}
	}
	return m
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: i + 1, Parent: parent, Workload: t.workload, Rep: t.rep, Name: name,
	})
	t.stack = append(t.stack, i)
	before := profNow()
	start := time.Now()
	fn()
	end := time.Now()
	after := profNow()
	t.stack = t.stack[:len(t.stack)-1]

	s := &t.spans[i]
	s.StartNs = start.Sub(t.epoch).Nanoseconds()
	s.EndNs = end.Sub(t.epoch).Nanoseconds()
	s.SelfNs += s.EndNs - s.StartNs
	if parent > 0 {
		t.spans[parent-1].SelfNs -= s.EndNs - s.StartNs
	}
	for k, a := range after {
		if d := [2]int64{a[0] - before[k][0], a[1] - before[k][1]}; d != [2]int64{} {
			if s.Prof == nil {
				s.Prof = make(map[string][2]int64)
			}
			s.Prof[k] = d
		}
	}
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
