package harness

import (
	"fmt"
	"sort"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/asdb"
	"repro/internal/workload/openloop"
)

// ChaosSpec is one cell of the chaos matrix: a named net-fault schedule
// crossed with an optional mid-window primary crash (followed by
// failover and promotion) and an optional open-loop arrival storm.
type ChaosSpec struct {
	Name     string
	Schedule string // fault.ScheduleNames entry
	Crash    bool   // crash the primary mid-window, fail over, promote
	Storm    bool   // 6x arrival burst through the middle half of the window

	// Events, when non-nil, is an explicit fault timeline used instead of
	// the named Schedule — custom scenarios and the armed-but-unfired
	// identity probe.
	Events fault.Schedule
}

// ChaosSpecs is the default matrix: every schedule alone, the pure
// failover cell, and the compound cells — partitions and reset storms
// during failover, and the marquee split-burst (serving partition +
// replication-link stall + reset wave) with a crash on top.
func ChaosSpecs() []ChaosSpec {
	return []ChaosSpec{
		{Name: "baseline", Schedule: "none"},
		{Name: "crash", Schedule: "none", Crash: true},
		{Name: "partition", Schedule: "partition"},
		{Name: "flaky", Schedule: "flaky"},
		{Name: "degrade", Schedule: "degrade"},
		{Name: "reset-storm", Schedule: "reset-storm"},
		{Name: "partition+crash", Schedule: "partition", Crash: true},
		{Name: "reset-storm+storm", Schedule: "reset-storm", Storm: true},
		{Name: "split-burst+crash", Schedule: "split-burst", Crash: true},
		{Name: "flaky+storm+crash", Schedule: "flaky", Crash: true, Storm: true},
	}
}

// ChaosPoint is one chaos cell's outcome: goodput and client-boundary
// accounting, the safety verdict, and liveness as time to the first
// acknowledged request after the last disruption.
type ChaosPoint struct {
	Spec ChaosSpec

	OfferedRPS float64
	GoodputRPS float64 // acked/OK replies per second over the measure window

	Acked   int64          // execs acknowledged at the client boundary
	Unknown int64          // execs with ambiguous outcome (never retried)
	Client  client.Metrics // the resilient clients' shared accounting

	LostAcks   int64   // client-acked commits missing from the surviving log (must be 0)
	FailoverMs float64 // RTO when the cell crashed (0 otherwise)
	RecoveryMs float64 // last disruption -> first acked request (-1: none seen)

	// Telemetry is the primary's registry snapshot (nil unless
	// Options.Telemetry armed it).
	Telemetry *telemetry.Snapshot

	Err string // safety-checker verdict ("" = all invariants held)
}

// ChaosResult is the full matrix outcome.
type ChaosResult struct {
	SF     int
	Seed   int64
	Rate   float64
	Points []ChaosPoint
}

// chaosDisruptEnd is the instant the cell's last disruption clears:
// the crash time and every schedule event's end, whichever is latest.
func chaosDisruptEnd(spec ChaosSpec, sched fault.Schedule, crashAt sim.Duration) sim.Time {
	var last sim.Duration
	if spec.Crash {
		last = crashAt
	}
	for _, ev := range sched {
		if end := ev.At + ev.Dur; end > last {
			last = end
		}
	}
	return sim.Time(last)
}

// chaosSafetyCheck audits the client-boundary invariants after a cell
// drains:
//
//  1. acked-at-most-once: no request id is acked twice on either side,
//     and the client's ack log is a subset of the server's (an ack the
//     server never recorded would mean a reply was fabricated or a
//     retry double-charged);
//  2. acked-commit survival: every epoch-0 client-acked commit LSN is
//     inside the cluster's acknowledged set and — after a failover —
//     applied on the promoted standby; epoch-1 acks are durable on the
//     promoted node's own log;
//  3. ambiguity bookkeeping: every transport-interrupted exec was
//     reported Unknown and never resent (Metrics.Ambiguous agrees).
//
// It returns the number of lost acked commits and the first violated
// invariant ("" when all hold).
func chaosSafetyCheck(cl *repl.Cluster, cf *serve.ClusterFrontend, st *openloop.RStats, crashed bool) (int64, string) {
	srvAcks := make(map[client.AckKey]serve.Ack, len(cf.Acks))
	for _, a := range cf.Acks {
		k := client.AckKey{Pair: a.Pair, Req: a.Req}
		if _, dup := srvAcks[k]; dup {
			return 0, fmt.Sprintf("server acked pair=%d req=%d twice (double execution)", a.Pair, a.Req)
		}
		srvAcks[k] = a
	}
	if int64(len(st.Acks)) != st.M.AckedExecs || st.Acked != st.M.AckedExecs {
		return 0, fmt.Sprintf("ack bookkeeping skew: %d ack keys, %d acked outcomes, %d metric acks",
			len(st.Acks), st.Acked, st.M.AckedExecs)
	}
	if st.Unknown != st.M.Ambiguous {
		return 0, fmt.Sprintf("ambiguity skew: %d unknown outcomes vs %d ambiguous metric", st.Unknown, st.M.Ambiguous)
	}

	clusterAcked := make(map[int64]bool)
	for _, lsn := range cl.AckedLSNs() {
		clusterAcked[lsn] = true
	}
	promoted := cl.PromotedStandby()
	if crashed && promoted == nil {
		return 0, "cell crashed but no standby was promoted"
	}

	var lost int64
	seen := make(map[client.AckKey]bool, len(st.Acks))
	for _, k := range st.Acks {
		if seen[k] {
			return lost, fmt.Sprintf("client recorded pair=%d req=%d acked twice", k.Pair, k.Req)
		}
		seen[k] = true
		a, ok := srvAcks[k]
		if !ok {
			return lost, fmt.Sprintf("client-acked pair=%d req=%d missing from the server ack log", k.Pair, k.Req)
		}
		if a.LSN == 0 {
			continue // no durable effect to audit
		}
		switch {
		case a.Epoch == 0 && !clusterAcked[a.LSN]:
			lost++
		case a.Epoch == 0 && promoted != nil && a.LSN > promoted.AppliedLSN():
			lost++
		case a.Epoch == 1 && (promoted == nil || a.LSN > promoted.DurableLSN()):
			lost++
		case a.Epoch == 0 && promoted == nil && a.LSN > cl.Primary.Log.FlushedLSN():
			lost++
		}
	}
	if lost > 0 {
		return lost, fmt.Sprintf("%d client-acked commits did not survive", lost)
	}
	return 0, ""
}

// runChaosCell boots an isolated simulation — a quorum-replicated
// cluster fronted over the fault-injected transport, resilient clients
// replaying an open-loop plan, the scripted net-fault schedule, and
// (when the spec says so) a mid-window crash with failover — then runs
// the safety checker at the client boundary.
func runChaosCell(sf int, opt Options, spec ChaosSpec, rate float64) ChaosPoint {
	out := ChaosPoint{Spec: spec, RecoveryMs: -1}
	sched := spec.Events
	if sched == nil {
		var err error
		sched, err = fault.BuildNamedSchedule(spec.Schedule, opt.Seed, opt.Warmup, opt.Measure)
		if err != nil {
			out.Err = err.Error()
			return out
		}
	}
	crashAt := opt.Warmup + opt.Measure/2
	ro := engine.RecoveryOptions{MaxFlushBytes: 4 << 10}
	if spec.Crash {
		ro.Crash = fault.CrashPlan{Point: fault.CrashAtTime, At: crashAt}
	}
	rcfg := repl.Config{
		Mode: repl.ModeQuorum, Quorum: 1, Replicas: 2,
		// Partitions must fail commits with a typed outcome, not wedge
		// them: a short ack bound keeps the commit path live through the
		// fault windows.
		AckTimeout: 2 * sim.Second,
	}
	c := bootASDB(sf, opt, Knobs{}, &ro, &rcfg)
	srv, cl := c.srv, c.cl
	// Only the primary's device is throttled here; the failover cells boot
	// under Knobs{WriteLimitMBps: 50}, which throttles the standbys too.
	// Kept as it has always run (ROADMAP's ⚠ queue has the inconsistency).
	srv.BlkIO.SetWriteLimit(50)
	cf := serve.NewCluster(cl, c.d, func(db *engine.Database) *asdb.Dataset { return c.ds[db] }, serve.Config{})

	if err := injectFaults(srv, &fault.Config{Schedule: sched}, fault.Targets{Repl: cl, Net: cf.Net}); err != nil {
		out.Err = err.Error()
		return out
	}
	c.start()
	if err := cf.Start(); err != nil {
		out.Err = err.Error()
		return out
	}

	end := sim.Time(opt.Warmup + opt.Measure)
	plan := offeredLoad(srv, opt, rate, spec.Storm)
	var st openloop.RStats
	openloop.RunResilient(srv.Sim, cf.Net, cf.Endpoints(), plan, &st, srv.Sim.RNG().Fork())
	st.M.Register(srv.Tel)

	var frep *repl.FailoverReport
	var promoteErr, verifyErr error
	if spec.Crash {
		c.onCrash("chaos-failover", end, func(p *sim.Proc) {
			frep = cl.Failover(p)
			// Verify replay purity before the promoted node accepts new
			// writes (they would advance its log past the applied frontier).
			verifyErr = cl.VerifyFailover(frep)
			promoteErr = cf.Promote()
		})
	}

	srv.Sim.Run(end)
	// Let in-flight retries, backoffs, and post-failover re-dials finish.
	srv.Sim.Run(end + sim.Time(30*sim.Second))
	// The front ends stop with their engines, through the stop hooks.
	quiesceErr := settle(srv, cl)

	warm := sim.Time(opt.Warmup)
	var okN int64
	for _, s := range st.Samples {
		if s.OK && s.At > warm && s.At <= end+sim.Time(30*sim.Second) {
			okN++
		}
	}
	out.OfferedRPS = plan.OfferedRPS()
	out.GoodputRPS = float64(okN) / opt.Measure.Seconds()
	out.Acked = st.Acked
	out.Unknown = st.Unknown
	out.Client = st.M
	out.Telemetry = srv.Tel.Snapshot()

	// Liveness: first acked request after the last disruption clears.
	if disrupt := chaosDisruptEnd(spec, sched, crashAt); disrupt > 0 {
		firstOK := sim.Time(-1)
		for _, s := range st.Samples {
			if s.OK && s.At >= disrupt && (firstOK < 0 || s.At < firstOK) {
				firstOK = s.At
			}
		}
		if firstOK >= 0 {
			out.RecoveryMs = float64(firstOK-disrupt) / 1e6
		}
	} else {
		out.RecoveryMs = 0
	}

	// Safety: the crash cell must have fired, promoted, and preserved
	// every acked commit; fault-only cells must quiesce with matching
	// digests.
	if spec.Crash {
		if frep == nil {
			out.Err = "primary crash never fired"
			return out
		}
		out.FailoverMs = float64(frep.RTO) / 1e6
		if verifyErr != nil {
			out.Err = verifyErr.Error()
			return out
		}
		if promoteErr != nil {
			out.Err = "promote: " + promoteErr.Error()
			return out
		}
	} else if quiesceErr != "" {
		out.Err = quiesceErr
		return out
	}
	out.LostAcks, out.Err = chaosSafetyCheck(cl, cf, &st, spec.Crash)
	return out
}

// Chaos runs the seeded chaos matrix at rate connection arrivals per
// second. Cells boot isolated simulations: results are bit-identical at
// any opt.Parallel.
func Chaos(sf int, opt Options, specs []ChaosSpec, rate float64) ChaosResult {
	points := Sweep(opt.Parallel, len(specs), func(i int) ChaosPoint {
		return runChaosCell(sf, opt, specs[i], rate)
	}, opt.Progress)
	return ChaosResult{SF: sf, Seed: opt.Seed, Rate: rate, Points: points}
}

// EmitChaos exports the matrix, one point record per cell metric plus
// each cell's telemetry series.
func EmitChaos(e *Emitter, r ChaosResult) {
	for _, p := range r.Points {
		point := func(metric string, v float64, unit string) {
			e.Emit(Record{
				Record: "point", Experiment: "chaos", Workload: "asdb", SF: r.SF,
				Metric: metric, Name: p.Spec.Name, X: p.OfferedRPS, Value: v, Unit: unit,
			})
		}
		point("goodput", p.GoodputRPS, "rps")
		point("acked_execs", float64(p.Acked), "requests")
		point("ambiguous_execs", float64(p.Unknown), "requests")
		point("client_retries", float64(p.Client.Retries), "requests")
		point("reconnects", float64(p.Client.Reconnects), "conns")
		point("resets", float64(p.Client.Resets), "conns")
		point("lost_acks", float64(p.LostAcks), "commits")
		point("failover_ms", p.FailoverMs, "ms")
		point("recovery_ms", p.RecoveryMs, "ms")
		EmitTelemetry(e, "chaos", "asdb", r.SF, p.Spec.Name, p.Telemetry)
	}
}

// String renders the matrix as an aligned table.
func (r ChaosResult) String() string {
	s := fmt.Sprintf("chaos asdb sf=%d seed=%d rate=%g (schedule x crash x storm; quorum replication, resilient clients)\n",
		r.SF, r.Seed, r.Rate)
	s += fmt.Sprintf("%-18s %8s %8s %7s %6s %7s %7s %6s %5s %9s %9s %s\n",
		"cell", "offered", "goodput", "acked", "ambig", "retries", "reconn", "resets", "lost", "rto-ms", "recov-ms", "err")
	for _, p := range r.Points {
		s += fmt.Sprintf("%-18s %8.1f %8.1f %7d %6d %7d %7d %6d %5d %9.1f %9.1f %s\n",
			p.Spec.Name, p.OfferedRPS, p.GoodputRPS, p.Acked, p.Unknown, p.Client.Retries,
			p.Client.Reconnects, p.Client.Resets, p.LostAcks, p.FailoverMs, p.RecoveryMs, p.Err)
	}
	return s
}

// Err returns the first failed cell, nil when every invariant held.
func (r ChaosResult) Err() error {
	names := make([]string, 0, len(r.Points))
	for _, p := range r.Points {
		if p.Err != "" {
			names = append(names, p.Spec.Name+": "+p.Err)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return fmt.Errorf("chaos: %d cells failed safety: %v", len(names), names)
}
