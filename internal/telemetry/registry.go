package telemetry

import (
	"sort"

	"repro/internal/sim"
)

// Metric kinds, as reported in snapshots.
const (
	KindCounter = "counter" // monotone total; sampled as per-interval delta
	KindGauge   = "gauge"   // instantaneous level; sampled as-is
	KindHist    = "hist"    // latency histogram; sampled as per-interval mean ns
)

// Point is one interval sample of a series on the simulated clock.
type Point struct {
	At    sim.Time // end of the sampling interval
	Value float64
}

// Hist is a registry-owned latency histogram. The nil receiver is a
// no-op, so subsystems hold a possibly-nil *Hist and call Observe
// unconditionally; when telemetry is off the cost is one branch.
type Hist struct {
	h         Histogram
	prevN     int64
	prevSumNs int64
}

// Observe records one latency.
func (h *Hist) Observe(d sim.Duration) {
	if h != nil {
		h.h.Observe(d)
	}
}

// metric is one registered series plus its sampling state.
type metric struct {
	subsystem string
	name      string
	unit      string
	kind      string

	counterFn func() float64 // KindCounter, read from a cumulative source
	prevF     float64        // counterFn value at the previous sample
	gaugeFn   func() float64 // KindGauge
	hist      *Hist          // KindHist

	// Ring buffer of interval samples.
	buf  []Point
	head int // next write slot once full
	n    int
}

func (m *metric) push(pt Point) {
	if m.n < cap(m.buf) {
		m.buf = append(m.buf, pt)
		m.n++
		return
	}
	m.buf[m.head] = pt
	m.head = (m.head + 1) % len(m.buf)
}

func (m *metric) points() []Point {
	out := make([]Point, 0, m.n)
	if m.n < cap(m.buf) {
		return append(out, m.buf...)
	}
	out = append(out, m.buf[m.head:]...)
	return append(out, m.buf[:m.head]...)
}

// sample takes one interval reading ending at the given time.
func (m *metric) sample(at sim.Time) {
	var v float64
	switch {
	case m.counterFn != nil:
		cur := m.counterFn()
		v = cur - m.prevF
		m.prevF = cur
	case m.gaugeFn != nil:
		v = m.gaugeFn()
	case m.hist != nil:
		dn := m.hist.h.N - m.hist.prevN
		ds := m.hist.h.SumNs - m.hist.prevSumNs
		m.hist.prevN = m.hist.h.N
		m.hist.prevSumNs = m.hist.h.SumNs
		if dn > 0 {
			v = float64(ds) / float64(dn)
		}
	}
	m.push(Point{At: at, Value: v})
}

// total returns the metric's end-of-run headline value: cumulative total
// for counters, current level for gauges, cumulative mean for histograms.
func (m *metric) total() float64 {
	switch {
	case m.counterFn != nil:
		return m.counterFn()
	case m.gaugeFn != nil:
		return m.gaugeFn()
	case m.hist != nil:
		return m.hist.h.Mean()
	}
	return 0
}

const (
	// sampleInterval is the sampling period on the simulated clock: the
	// paper's counter-collection cadence.
	sampleInterval = sim.Second
	// ringCap bounds each series' retained samples; older samples are
	// overwritten ring-buffer style.
	ringCap = 512
)

// Registry holds every registered series for one simulation and samples
// them every sampleInterval from a dedicated sampler process.
// One registry belongs to one simulation, so access is serialized by the
// simulation kernel and needs no locking. A nil *Registry is inert:
// every registration method returns nil/no-ops, which is how the
// telemetry-off configuration is expressed.
type Registry struct {
	metrics []*metric
	byName  map[string]bool

	lastAt  sim.Time
	stopped bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(m *metric) {
	key := m.subsystem + "." + m.name
	if r.byName[key] {
		panic("telemetry: duplicate series " + key)
	}
	r.byName[key] = true
	m.buf = make([]Point, 0, ringCap)
	r.metrics = append(r.metrics, m)
}

// CounterFunc registers a counter series backed by an existing cumulative
// source (an LSN, a wait-ns total, a hit count); each sample records the
// delta since the previous one. No-op on a nil registry.
func (r *Registry) CounterFunc(subsystem, name, unit string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{subsystem: subsystem, name: name, unit: unit, kind: KindCounter, counterFn: fn})
}

// Gauge registers an instantaneous-level series read from fn at each
// sample. No-op on a nil registry.
func (r *Registry) Gauge(subsystem, name, unit string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{subsystem: subsystem, name: name, unit: unit, kind: KindGauge, gaugeFn: fn})
}

// Histogram registers a latency histogram series; samples record the
// per-interval mean in ns, and the snapshot carries the full cumulative
// histogram for quantiles. Returns nil on a nil registry.
func (r *Registry) Histogram(subsystem, name string) *Hist {
	if r == nil {
		return nil
	}
	h := &Hist{}
	r.register(&metric{subsystem: subsystem, name: name, unit: "ns", kind: KindHist, hist: h})
	return h
}

// Start spawns the sampler process. Like the engine's counter sampler it
// only sleeps and reads, so its presence cannot perturb simulated
// results. No-op on a nil registry.
func (r *Registry) Start(sm *sim.Sim) {
	if r == nil {
		return
	}
	sm.Spawn("telemetry-sampler", func(p *sim.Proc) {
		for !r.stopped {
			p.Sleep(sampleInterval)
			if r.stopped {
				return
			}
			r.sampleAll(p.Now())
		}
	})
}

// Stop halts sampling and, if the clock moved past the last full sample,
// takes one final partial-interval sample so trailing activity is
// retained. Safe on a nil registry.
func (r *Registry) Stop(now sim.Time) {
	if r == nil || r.stopped {
		return
	}
	r.stopped = true
	if now > r.lastAt {
		r.sampleAll(now)
	}
}

func (r *Registry) sampleAll(at sim.Time) {
	for _, m := range r.metrics {
		m.sample(at)
	}
	r.lastAt = at
}

// SeriesData is one series' exported form.
type SeriesData struct {
	Subsystem string
	Name      string
	Unit      string
	Kind      string
	Points    []Point
	Total     float64    // end-of-run headline value (see metric.total)
	Hist      *Histogram // cumulative histogram, KindHist only
}

// Snapshot is the registry's full exported state.
type Snapshot struct {
	Series []SeriesData
}

// Snapshot deep-copies every series, sorted by subsystem then name, so
// exporters iterate deterministically. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	out := &Snapshot{Series: make([]SeriesData, 0, len(r.metrics))}
	for _, m := range r.metrics {
		sd := SeriesData{
			Subsystem: m.subsystem,
			Name:      m.name,
			Unit:      m.unit,
			Kind:      m.kind,
			Points:    m.points(),
			Total:     m.total(),
		}
		if m.hist != nil {
			h := m.hist.h
			sd.Hist = &h
		}
		out.Series = append(out.Series, sd)
	}
	sort.Slice(out.Series, func(i, j int) bool {
		if out.Series[i].Subsystem != out.Series[j].Subsystem {
			return out.Series[i].Subsystem < out.Series[j].Subsystem
		}
		return out.Series[i].Name < out.Series[j].Name
	})
	return out
}

// Subsystems returns the distinct subsystem labels in the snapshot.
func (s *Snapshot) Subsystems() []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, sd := range s.Series {
		if !seen[sd.Subsystem] {
			seen[sd.Subsystem] = true
			out = append(out, sd.Subsystem)
		}
	}
	sort.Strings(out)
	return out
}
