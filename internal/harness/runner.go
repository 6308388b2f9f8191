// Package harness defines one experiment per table and figure in the
// paper's evaluation, wired to the engine, workloads, and the core
// sensitivity library. Each experiment point boots a fresh simulated
// server, applies the resource knobs (cpuset cores, CAT LLC mask, blkio
// bandwidth limits, MAXDOP, grant fraction), drives the workload through
// a warmup, and measures over a fixed window of simulated time.
package harness

import (
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/asdb"
	"repro/internal/workload/htap"
	"repro/internal/workload/tpce"
	"repro/internal/workload/tpch"
)

// Knobs are the resource-allocation settings an experiment varies.
type Knobs struct {
	Cores          int     // logical cores in the cpuset (0 = all 32)
	LLCMB          int     // total CAT allocation in MB (0 = full 40)
	ReadLimitMBps  float64 // blkio read limit (0 = unlimited)
	WriteLimitMBps float64 // blkio write limit (0 = unlimited)
	MaxDOP         int     // resource-governor DOP cap (0 = cores)
	GrantPct       float64 // per-query memory grant fraction (0 = default 0.25)

	// Resilience knobs (the fault-injection experiments). All zero values
	// leave a point identical to a baseline run.
	Faults      *fault.Config // fault injection (nil or disabled = none)
	StmtTimeout sim.Duration  // statement deadline (0 = none)
	Retry       bool          // driver retries (engine.Config.Retry)

	// Trace enables per-operator query tracing (engine.Config.Trace).
	Trace bool
}

// Options control scale-down density and measurement windows, so the
// same experiments run tiny in tests and denser in benchmarks.
type Options struct {
	// Density scales generated rows: tpch lineitem rows per SF,
	// tpce trades per customer, asdb rows per SF unit.
	Density int
	Warmup  sim.Duration
	Measure sim.Duration
	Users   int   // OLTP users/clients override (0 = paper's counts)
	Streams int   // TPC-H concurrent streams (0 = paper's 3)
	Seed    int64 // 0 = default seed 1, but for the engine only: dbsense rejects it
	// MinQueries extends the measurement window (in Measure-sized hops,
	// up to 8) until at least this many queries complete — long-running
	// analytical points would otherwise quantize QPS badly.
	MinQueries int64
	// Parallel is how many worker goroutines sweeps fan experiment
	// points across (0 = GOMAXPROCS). Results are bit-identical at any
	// setting; see Sweep.
	Parallel int
	// Progress, when non-nil, receives per-point completion updates
	// during sweeps.
	Progress Progress

	// Telemetry arms the engine-wide metric registry on every point
	// (engine.Config.Telemetry): each Result carries a sampled time-series
	// snapshot and sweep emitters export it as series records. Off, runs
	// are bit-identical to a build without telemetry.
	Telemetry bool
}

// DefaultOptions returns bench-scale settings.
func DefaultOptions() Options {
	return Options{
		Density:    200,
		Warmup:     2 * sim.Second,
		Measure:    10 * sim.Second,
		Seed:       1,
		MinQueries: 12,
	}
}

// TestOptions returns tiny settings for unit tests.
func TestOptions() Options {
	return Options{
		Density: 50,
		Warmup:  sim.Second,
		Measure: 3 * sim.Second,
		Users:   16,
		Streams: 2,
		Seed:    1,
	}
}

// Result is one experiment point's measurements.
type Result struct {
	Throughput float64 // queries/s (DSS), transactions/s (OLTP)
	OLTPTps    float64 // HTAP: transactional component
	DSSQps     float64 // HTAP: analytical component

	MPKI         float64
	IPC          float64
	SSDReadMBps  float64
	SSDWriteMBps float64
	DRAMMBps     float64

	ElapsedSecs float64 // actual measurement window (may exceed Measure)

	ReadBWSeries  []float64 // per-second SSD read MB/s (CDF material)
	WriteBWSeries []float64
	DRAMBWSeries  []float64

	WaitNs [metrics.NumWaitClasses]int64

	Delta metrics.Counters

	// QueryStats is the server's cumulative per-query-template statistics
	// at the end of the run (sorted by template label).
	QueryStats []metrics.QueryStatRow

	// Telemetry is the registry snapshot at the end of the run (nil
	// unless Options.Telemetry armed it).
	Telemetry *telemetry.Snapshot
}

// server builds and configures a server for the knobs.
func newServer(opt Options, k Knobs) *engine.Server {
	cfg := engine.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.MaxDOP = k.MaxDOP
	if k.GrantPct > 0 {
		cfg.GrantFrac = k.GrantPct
	}
	cfg.StmtTimeout = k.StmtTimeout
	cfg.Retry = k.Retry
	cfg.Trace = k.Trace
	cfg.Telemetry = opt.Telemetry
	srv := engine.NewServer(cfg)
	if k.Cores > 0 {
		srv.CPUs.AllowN(k.Cores)
	}
	if k.LLCMB > 0 {
		srv.M.SetCATMask(srv.M.CATMaskForMB(k.LLCMB))
	}
	srv.BlkIO.SetReadLimit(k.ReadLimitMBps) // 0 = unlimited, as booted
	srv.BlkIO.SetWriteLimit(k.WriteLimitMBps)
	if err := injectFaults(srv, k.Faults, fault.Targets{}); err != nil {
		panic(err) // Knobs are built by this package's cells, not parsed from input
	}
	return srv
}

// injectFaults validates cfg and, when it injects anything, starts an
// injector that stops with srv. The targets every cell shares come from
// srv; extra carries the ones only some cells have (Repl, Net).
func injectFaults(srv *engine.Server, cfg *fault.Config, extra fault.Targets) error {
	if cfg == nil {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.Enabled() {
		return nil
	}
	extra.Dev, extra.Log, extra.BP, extra.CPUs = srv.Dev, srv.Log, srv.BP, srv.CPUs
	extra.Grants, extra.Ctr = srv, srv.Ctr
	inj := fault.New(srv.Sim, *cfg, extra)
	inj.Start()
	srv.AddStopHook(inj.Stop)
	return nil
}

// driverHorizon is the furthest point drivers may run to: the base
// window plus every adaptive extension measure() might take. Drivers
// also stop as soon as the server is stopped.
func driverHorizon(opt Options) sim.Time {
	return sim.Time(opt.Warmup + 10*opt.Measure)
}

// measure runs the simulation through warmup and measurement, returning
// the measurement-window counter delta and bandwidth series. It advances
// the clock one simulated second at a time from the warmup instant and
// takes one bandwidth sample per step, so the series tile the window
// exactly; a step cut short by the window's end is scaled by its own
// length.
func measure(srv *engine.Server, opt Options) Result {
	at := sim.Time(opt.Warmup)
	srv.Sim.Run(at)
	before := *srv.Ctr
	prev := before
	var r Result
	runTo := func(end sim.Time) {
		for at < end {
			next := min(at+sim.Time(sim.Second), end)
			srv.Sim.Run(next)
			cur := *srv.Ctr
			d, secs := cur.Sub(prev), sim.Duration(next-at).Seconds()
			r.ReadBWSeries = append(r.ReadBWSeries, float64(d.SSDReadBytes)/1e6/secs)
			r.WriteBWSeries = append(r.WriteBWSeries, float64(d.SSDWriteBytes)/1e6/secs)
			r.DRAMBWSeries = append(r.DRAMBWSeries, float64(d.DRAMReadBytes+d.DRAMWriteBytes)/1e6/secs)
			prev, at = cur, next
		}
	}
	runTo(at + sim.Time(opt.Measure))
	// Analytical points with few completions extend the window so QPS
	// does not quantize to multiples of 1/Measure.
	for hop := 0; opt.MinQueries > 0 &&
		prev.QueriesDone-before.QueriesDone < opt.MinQueries && hop < 8; hop++ {
		runTo(at + sim.Time(opt.Measure))
	}
	settle(srv, nil)

	delta := prev.Sub(before)
	secs := (sim.Duration(at) - opt.Warmup).Seconds()
	r.Delta, r.ElapsedSecs = delta, secs
	r.MPKI = delta.MPKI()
	if delta.Cycles > 0 {
		r.IPC = float64(delta.Instructions) / float64(delta.Cycles)
	}
	r.SSDReadMBps = float64(delta.SSDReadBytes) / 1e6 / secs
	r.SSDWriteMBps = float64(delta.SSDWriteBytes) / 1e6 / secs
	r.DRAMMBps = float64(delta.DRAMReadBytes+delta.DRAMWriteBytes) / 1e6 / secs
	r.WaitNs = delta.WaitNs
	r.QueryStats = srv.QStats.Snapshot()
	r.Telemetry = srv.Tel.Snapshot()
	return r
}

// dataset is a built workload database plus the driver that loads it:
// n closed-loop streams/users/clients running until the given instant.
type dataset struct {
	db    *engine.Database
	drive func(srv *engine.Server, n int, until sim.Time)
}

// workloadSpec is one row of the workload table: everything the runners
// and cell builders need to know about a workload class.
type workloadSpec struct {
	name  Workload
	title string // Table 2 label
	sfs   []int  // the paper's scale factors
	// rows maps Options.Density to generated rows per paper scale unit
	// (tpch lineitem rows per SF, tpce/htap trades per customer, asdb rows
	// per SF unit).
	rows func(density int) int
	// drivers is the closed-loop driver count: the Options override or the
	// paper's default.
	drivers func(opt Options) int
	// extendWindow is whether measure() honours Options.MinQueries. Only
	// the workloads with an analytical component do; a pure OLTP point
	// completes no queries and would always run the full 8 extensions.
	extendWindow bool
	build        func(sf int, opt Options) dataset
	// throughput fills the Result's headline rates from its counter delta.
	throughput func(r *Result)
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func tps(r *Result) { r.Throughput = float64(r.Delta.TxnCommits) / r.ElapsedSecs }

// workloads is the workload table, in the order sweeps over "every
// workload" run and Table 2 lists them. It is filled by init because the
// build funcs use the per-workload config helpers below, which read the
// table.
var workloads []workloadSpec

func init() {
	workloads = []workloadSpec{
		{
			name: WAsdb, title: "ASDB", sfs: []int{2000, 6000},
			rows:    func(d int) int { return max(2, d/20) },
			drivers: func(opt Options) int { return orDefault(opt.Users, 128) },
			build: func(sf int, opt Options) dataset {
				d := asdb.Build(asdbConfig(sf, opt))
				return dataset{d.DB, func(srv *engine.Server, n int, until sim.Time) {
					asdb.RunClients(srv, d, n, asdb.DefaultMix(), until, new(asdb.Stats))
				}}
			},
			throughput: tps,
		},
		{
			name: WTpce, title: "TPC-E", sfs: []int{5000, 15000},
			rows:    func(d int) int { return max(2, d/25) },
			drivers: func(opt Options) int { return orDefault(opt.Users, 100) },
			build: func(customers int, opt Options) dataset {
				d := tpce.Build(tpce.Config{
					Customers:               customers,
					ActualTradesPerCustomer: workload(WTpce).rows(opt.Density),
					Seed:                    opt.Seed,
				})
				return dataset{d.DB, func(srv *engine.Server, n int, until sim.Time) {
					tpce.RunUsers(srv, d, n, until, new(tpce.Stats))
				}}
			},
			throughput: tps,
		},
		{
			name: WHtap, title: "HTAP", sfs: []int{5000, 15000},
			rows:         func(d int) int { return max(2, d/25) },
			drivers:      func(opt Options) int { return orDefault(opt.Users, 99) },
			extendWindow: true,
			build: func(customers int, opt Options) dataset {
				d := htap.Build(htapConfig(customers, opt))
				return dataset{d.DB, func(srv *engine.Server, n int, until sim.Time) {
					htap.Run(srv, d, n, until, new(htap.Stats))
				}}
			},
			throughput: func(r *Result) {
				r.OLTPTps = float64(r.Delta.TxnCommits) / r.ElapsedSecs
				r.DSSQps = float64(r.Delta.QueriesDone) / r.ElapsedSecs
				r.Throughput = r.OLTPTps + r.DSSQps
			},
		},
		{
			name: WTpch, title: "TPC-H", sfs: []int{10, 30, 100, 300},
			rows:         func(d int) int { return d },
			drivers:      func(opt Options) int { return orDefault(opt.Streams, 3) },
			extendWindow: true,
			build: func(sf int, opt Options) dataset {
				d := tpch.Build(tpchConfig(sf, opt))
				return dataset{d.DB, func(srv *engine.Server, n int, until sim.Time) {
					tpch.RunStreams(srv, d, n, until, new(tpch.StreamStats))
				}}
			},
			throughput: func(r *Result) { r.Throughput = float64(r.Delta.QueriesDone) / r.ElapsedSecs },
		},
	}
}

// workload returns w's table row.
func workload(w Workload) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == w {
			return &workloads[i]
		}
	}
	panic("harness: unknown workload " + string(w))
}

// asdbConfig, htapConfig and tpchConfig are the dataset configs at the
// table's density rule, for the cell builders that need the typed
// dataset (replica images, the serving catalog, single-query timing)
// rather than a driven point.
func asdbConfig(sf int, opt Options) asdb.Config {
	return asdb.Config{SF: sf, ActualRowsPerSF: workload(WAsdb).rows(opt.Density), Seed: opt.Seed}
}

func htapConfig(customers int, opt Options) htap.Config {
	return htap.Config{Customers: customers, ActualTradesPerCustomer: workload(WHtap).rows(opt.Density), Seed: opt.Seed}
}

func tpchConfig(sf int, opt Options) tpch.Config {
	return tpch.Config{SF: sf, ActualLineitemPerSF: workload(WTpch).rows(opt.Density), Seed: opt.Seed}
}

// warmServer boots a server for the knobs with db attached and its
// buffer pool warm, not yet started (cells arm recovery or replication
// first).
func warmServer(db *engine.Database, opt Options, k Knobs) *engine.Server {
	srv := newServer(opt, k)
	srv.AttachDB(db)
	srv.WarmBufferPool()
	return srv
}

// setupTimer starts timing a cell's boot for the self-profile's setup
// phase; calling the returned func stops it. With profiling off it does
// nothing.
func setupTimer() (stop func()) {
	if !sim.Profiling() {
		return func() {}
	}
	t0 := time.Now()
	return func() { sim.ProfSetup.Add(time.Since(t0), 1) }
}

// runPoint measures one workload at one scale factor and knob setting:
// build, boot, drive through warmup, measure.
func runPoint(w Workload, sf int, opt Options, k Knobs) Result {
	row := workload(w)
	if !row.extendWindow {
		opt.MinQueries = 0
	}
	booted := setupTimer()
	d := row.build(sf, opt)
	srv := warmServer(d.db, opt, k)
	booted()
	srv.Start()
	d.drive(srv, row.drivers(opt), driverHorizon(opt))
	r := measure(srv, opt)
	row.throughput(&r)
	return r
}

// RunTPCH measures TPC-H stream throughput (QPS) at one knob setting.
func RunTPCH(sf int, opt Options, k Knobs) Result {
	return runPoint(WTpch, sf, opt, k)
}

// RunTPCE measures TPC-E throughput (TPS) at one knob setting.
func RunTPCE(customers int, opt Options, k Knobs) Result {
	return runPoint(WTpce, customers, opt, k)
}

// RunASDB measures ASDB throughput (TPS) at one knob setting.
func RunASDB(sf int, opt Options, k Knobs) Result {
	return runPoint(WAsdb, sf, opt, k)
}

// RunHTAP measures the hybrid workload: TPS for the 99-user transactional
// component and QPS for the single analytical user.
func RunHTAP(customers int, opt Options, k Knobs) Result {
	return runPoint(WHtap, customers, opt, k)
}
