package harness

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/openloop"
)

// ServingRates is the default offered-load grid (connection arrivals per
// second; each connection issues ~8 requests). The grid was calibrated
// once against the front end (serve.Workers workers over the ASDB
// catalog) so it spans comfortable load through well past saturation.
var ServingRates = []float64{2, 4, 8, 16, 32, 64}

// ServingPoint is one offered-load cell of the serving sweep.
type ServingPoint struct {
	RatePerSec float64 // connection arrival rate driven
	OfferedRPS float64 // requests/s the plan offers (exact, from the schedule)
	GoodputRPS float64 // OK replies per second over the measure window

	P50Ms, P99Ms, P999Ms float64 // served-request latency percentiles

	ShedRate float64 // shed replies / all replies in the window
	Shed     int64   // CodeOverloaded replies observed by clients
	Refused  int64   // dials refused (accept backlog / listener down)
	Dropped  int64   // requests cut off by shutdown or transport teardown
	Degraded int64   // queries the front end ran in degraded posture
	Accepted int64   // connections accepted

	// Telemetry is the engine+serve registry snapshot (nil unless
	// Options.Telemetry armed it).
	Telemetry *telemetry.Snapshot
}

// ServingResult is the offered-load response surface plus one storm cell.
type ServingResult struct {
	SF     int
	Points []ServingPoint
	// Storm drives a mid-grid base rate with a 6x arrival burst through
	// the middle half of the measure window — the overload-resilience
	// scenario: admission control should shed through the burst and
	// recover, not collapse.
	Storm ServingPoint
}

func pctMs(sorted []sim.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(sim.Millisecond)
}

// ServeOnce runs a single serving cell — an isolated simulation of engine,
// front end, transport and traffic plan — at the given connection-arrival
// rate, optionally with the storm burst. It is one point of the Serving
// sweep and the `dbsense serve` entry point.
func ServeOnce(sf int, opt Options, k Knobs, rate float64, storm bool) ServingPoint {
	c := bootASDB(sf, opt, k, nil, nil)
	c.start()
	srv := c.srv
	f := serve.New(srv, c.d, serve.Config{})
	if err := f.Start(); err != nil {
		panic(err) // address collision cannot happen on a fresh network
	}

	plan := offeredLoad(srv, opt, rate, storm)
	var st openloop.Stats
	openloop.Run(srv.Sim, f.Net, f.Cfg.Addr, plan, &st)

	end := sim.Time(opt.Warmup + opt.Measure)
	srv.Sim.Run(end)
	// Let in-flight requests finish before stopping, so tail latencies
	// near the window edge are observed rather than cut off.
	srv.Sim.Run(end + sim.Time(10*sim.Second))
	settle(srv, nil)

	warm := sim.Time(opt.Warmup)
	var served []sim.Duration
	var okN, shedN, replies int64
	for _, s := range st.Samples {
		if s.At <= warm || s.At > end+sim.Time(10*sim.Second) {
			continue
		}
		replies++
		if s.OK {
			okN++
			served = append(served, s.Lat)
		} else {
			shedN++
		}
	}
	sort.Slice(served, func(i, j int) bool { return served[i] < served[j] })

	p := ServingPoint{
		RatePerSec: rate,
		OfferedRPS: plan.OfferedRPS(),
		GoodputRPS: float64(okN) / opt.Measure.Seconds(),
		P50Ms:      pctMs(served, 0.50),
		P99Ms:      pctMs(served, 0.99),
		P999Ms:     pctMs(served, 0.999),
		Shed:       st.Shed,
		Refused:    st.Refused,
		Dropped:    st.Dropped,
		Degraded:   f.Ctr.Degraded,
		Accepted:   f.Ctr.Accepted,
		Telemetry:  srv.Tel.Snapshot(),
	}
	if replies > 0 {
		p.ShedRate = float64(shedN) / float64(replies)
	}
	return p
}

// Serving sweeps offered load through saturation on the serving front
// end at the default knobs and runs the storm cell. Cells boot isolated
// simulations: results are bit-identical at any opt.Parallel.
func Serving(sf int, opt Options, rates []float64) ServingResult {
	// The storm cell runs at the mid-grid rate as one more sweep slot, so
	// it parallelizes with the grid.
	slots := append(slices.Clone(rates), rates[len(rates)/2])
	points := Sweep(opt.Parallel, len(slots), func(i int) ServingPoint {
		return ServeOnce(sf, opt, Knobs{}, slots[i], i == len(rates))
	}, opt.Progress)
	return ServingResult{SF: sf, Points: points[:len(rates)], Storm: points[len(rates)]}
}

// EmitServing exports the sweep: goodput, latency-percentile, and
// shed-rate curves against offered load, the storm cell as point
// records, and (when armed) each cell's telemetry series.
func EmitServing(e *Emitter, r ServingResult) {
	curve := func(name, unit string, y func(ServingPoint) float64) {
		pts := make([]core.Point, len(r.Points))
		for i, p := range r.Points {
			pts[i] = core.Point{X: p.OfferedRPS, Y: y(p)}
		}
		EmitCurve(e, "serving", "asdb", r.SF, name, "offered_rps", unit, core.NewCurve(name, pts))
	}
	curve("goodput", "rps", func(p ServingPoint) float64 { return p.GoodputRPS })
	curve("p50", "ms", func(p ServingPoint) float64 { return p.P50Ms })
	curve("p99", "ms", func(p ServingPoint) float64 { return p.P99Ms })
	curve("p999", "ms", func(p ServingPoint) float64 { return p.P999Ms })
	curve("shed_rate", "frac", func(p ServingPoint) float64 { return p.ShedRate })
	curve("degraded", "requests", func(p ServingPoint) float64 { return float64(p.Degraded) })
	storm := func(metric string, v float64, unit string) {
		e.Emit(Record{
			Record: "point", Experiment: "serving", Workload: "asdb", SF: r.SF,
			Metric: metric, Name: "storm", X: r.Storm.OfferedRPS, Value: v, Unit: unit,
		})
	}
	storm("goodput", r.Storm.GoodputRPS, "rps")
	storm("p99", r.Storm.P99Ms, "ms")
	storm("shed_rate", r.Storm.ShedRate, "frac")
	storm("degraded", float64(r.Storm.Degraded), "requests")
	for _, p := range r.Points {
		EmitTelemetry(e, "serving", "asdb", r.SF,
			fmt.Sprintf("offered_rps=%g", p.OfferedRPS), p.Telemetry)
	}
	EmitTelemetry(e, "serving", "asdb", r.SF, "storm", r.Storm.Telemetry)
}

// EmitServeOnce exports a single serving cell (the `serve`
// experiment): one point record per headline metric at the cell's
// offered load, plus its telemetry series labelled with the connection
// rate.
func EmitServeOnce(e *Emitter, sf int, p ServingPoint) {
	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"goodput", "rps", p.GoodputRPS},
		{"p50", "ms", p.P50Ms},
		{"p99", "ms", p.P99Ms},
		{"p999", "ms", p.P999Ms},
		{"shed_rate", "frac", p.ShedRate},
		{"degraded", "requests", float64(p.Degraded)},
	} {
		e.Emit(Record{
			Record: "point", Experiment: "serve", Workload: "asdb", SF: sf,
			Metric: m.name, X: p.OfferedRPS, Value: m.v, Unit: m.unit,
		})
	}
	EmitTelemetry(e, "serve", "asdb", sf, fmt.Sprintf("rate=%g", p.RatePerSec), p.Telemetry)
}

// String renders the sweep as an aligned table.
func (r ServingResult) String() string {
	s := fmt.Sprintf("serving asdb sf=%d (open-loop offered load; %d workers, degrade-then-shed admission)\n", r.SF, serve.Workers)
	s += fmt.Sprintf("%9s %9s %9s %8s %8s %8s %9s %7s %8s %8s\n",
		"offered", "goodput", "p50-ms", "p99-ms", "p999-ms", "shed%", "refused", "dropped", "degraded", "conns")
	row := func(p ServingPoint) string {
		return fmt.Sprintf("%9.1f %9.1f %9.3f %8.2f %8.2f %8.2f %9d %7d %8d %8d\n",
			p.OfferedRPS, p.GoodputRPS, p.P50Ms, p.P99Ms, p.P999Ms,
			100*p.ShedRate, p.Refused, p.Dropped, p.Degraded, p.Accepted)
	}
	for _, p := range r.Points {
		s += row(p)
	}
	s += "storm (6x burst through mid-window):\n"
	s += row(r.Storm)
	return s
}
