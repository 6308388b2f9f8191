package engine

import (
	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/cgroup"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/iodev"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Config sizes a server. Zero values take the paper's defaults.
type Config struct {
	Seed int64 // 0 = default seed 1

	// Resource governor.
	MaxDOP    int     // 0 = number of allowed cores
	GrantFrac float64 // per-query grant cap as a fraction of workspace

	// StmtTimeout is the statement deadline (0 = none, the baseline).
	// A statement that cannot finish by its deadline is killed with a
	// typed ErrDeadline QueryError; halfway to the deadline a query
	// still waiting on its grant is re-planned at lower DOP and grant
	// (graceful degradation) before being killed.
	StmtTimeout sim.Duration

	// Retry arms bounded driver-level retries of failed statements and
	// transactions (retry.go). Off (the baseline) runs each once.
	Retry bool

	// Trace enables per-operator span tracing on analytical queries.
	// Off (the default) costs nothing; QueryResult.Trace is then nil.
	Trace bool

	// Telemetry arms the unified metric registry: every subsystem's
	// counters/gauges/histograms sampled into time series at 1-second
	// simulated intervals (Server.Tel). Off (the default) allocates
	// nothing and leaves every hot-path handle nil, so runs are
	// bit-identical to a build without telemetry at all.
	Telemetry bool
}

// The paper's box has 64 GB of host memory. SQL Server gets 80% of it;
// of that, the buffer pool takes 82% and the query workspace the rest.
// No experiment varies the split: the memory axis is Config.GrantFrac.
const (
	sqlMemBytes     = 64 << 30 * 80 / 100
	bufferPoolBytes = sqlMemBytes * 82 / 100
)

// DefaultConfig returns the paper's testbed configuration. The machine
// (hw.PaperSpec), the SSD (iodev.PaperSSD) and the cost model
// (access.DefaultCost) are the paper's and no experiment varies them.
func DefaultConfig() Config {
	return Config{Seed: 1, GrantFrac: 0.25}
}

// Server is one running database server inside one simulation.
type Server struct {
	Cfg  Config
	Cost *access.CostModel // access.DefaultCost

	Sim   *sim.Sim
	M     *hw.Machine
	Dev   *iodev.Device
	BlkIO *cgroup.BlkIO
	CPUs  *cgroup.CPUSet
	BP    *buffer.Pool
	Log   *wal.Log
	Locks *lock.Manager
	Txns  *txn.Manager
	Ctr   *metrics.Counters

	// QStats is the cumulative per-query-template statistics store
	// (dm_exec_query_stats). Always on: recording is a few counter adds
	// per statement and changes no simulated behavior.
	QStats *metrics.QueryStats

	// Tel is the unified metric registry (nil unless Cfg.Telemetry).
	Tel *telemetry.Registry

	DB *Database

	logLatch   *lock.NamedLatch
	allocLatch map[int]*lock.NamedLatch

	workspace    int64 // query workspace bytes
	workspaceUse int64
	faultReserve int64 // workspace stolen by fault injection (grant starvation)
	grantQ       sim.WaitQueue

	nextCore   int
	sessOpened int64 // cumulative Open count
	sessActive int64 // currently open sessions

	stopped   bool
	cleanStop bool
	stopHooks []func()
	tempBase  uint64
	metaBase  uint64

	// Crash-recovery state (ArmRecovery only).
	armed     bool
	crashed   bool
	crasher   *fault.Crasher
	liveAtArm map[int]int64 // live rows per table at arm time (invariants)
}

// NewServer builds a server and its background services.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return NewServerOn(sim.New(cfg.Seed), cfg)
}

// NewServerOn builds a server inside an existing simulation — how a
// replication cluster places several machines (primary + standbys) on
// one sim clock. Each server still gets its own device, buffer pool,
// log, and lock space; only the clock and event loop are shared.
func NewServerOn(sm *sim.Sim, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctr := &metrics.Counters{}
	m := hw.New(sm, hw.PaperSpec(), ctr)
	dev := iodev.New(iodev.PaperSSD(), ctr)
	s := &Server{
		Cfg:        cfg,
		Cost:       access.DefaultCost(),
		Sim:        sm,
		M:          m,
		Dev:        dev,
		BP:         buffer.New(sm, dev, ctr, bufferPoolBytes),
		Log:        wal.New(sm, dev, ctr),
		Locks:      lock.NewManager(sm, ctr),
		Ctr:        ctr,
		QStats:     metrics.NewQueryStats(),
		logLatch:   lock.NewNamedLatch("LOG_BUFFER", ctr),
		allocLatch: make(map[int]*lock.NamedLatch),
		workspace:  sqlMemBytes - bufferPoolBytes,
	}
	s.Txns = txn.NewManager(s.Locks, s.Log, ctr)
	s.CPUs = cgroup.NewCPUSet(m)
	s.BlkIO = cgroup.NewBlkIO(dev)
	s.tempBase = m.ReserveRegion(8 << 30)
	s.metaBase = m.ReserveRegion(s.Cost.MetaBytes + (1 << 20))
	if cfg.Telemetry {
		s.Tel = telemetry.NewRegistry()
		s.registerTelemetry()
	}
	return s
}

// withDefaults fills zero-valued fields from DefaultConfig, so callers
// may override only what an experiment varies.
func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	if cfg.GrantFrac == 0 {
		cfg.GrantFrac = d.GrantFrac
	}
	return cfg
}

// Start launches background services (log writer, checkpointer,
// telemetry registry).
func (s *Server) Start() {
	s.Log.Start()
	s.BP.StartCheckpointer()
	s.Tel.Start(s.Sim)
}

// Stop flags shutdown: background services exit at their next wakeup and
// workload drivers should consult Stopped.
func (s *Server) Stop() {
	s.cleanStop = true
	s.stopServices(s.Log.Stop)
}

// stopServices is the shutdown Stop and Crash share, but for how the log
// stops. Telemetry takes its last sample now; stop hooks run only once.
func (s *Server) stopServices(stopLog func()) {
	wasStopped := s.stopped
	s.stopped = true
	stopLog()
	s.BP.Stop()
	s.Tel.Stop(s.Sim.Now())
	if !wasStopped {
		for _, fn := range s.stopHooks {
			fn()
		}
	}
	s.grantQ.WakeAll(s.Sim) // let parked grant waiters observe shutdown
}

// AddStopHook registers fn to run during Stop — how auxiliary services
// bound to this server (e.g. a fault injector) are shut down with it.
func (s *Server) AddStopHook(fn func()) { s.stopHooks = append(s.stopHooks, fn) }

// WorkspaceBytes returns the configured query workspace size.
func (s *Server) WorkspaceBytes() int64 { return s.workspace }

// SetFaultReserve reserves bytes of workspace away from query grants (the
// fault injector's grant-starvation axis); 0 clears the reservation.
// Waiters are woken so they re-evaluate against the new capacity.
func (s *Server) SetFaultReserve(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	if bytes > s.workspace {
		bytes = s.workspace
	}
	s.faultReserve = bytes
	s.grantQ.WakeAll(s.Sim)
}

// Stopped reports whether shutdown was requested.
func (s *Server) Stopped() bool { return s.stopped }

// AttachDB registers a database's files with the buffer pool and gives
// every object a synthetic address region.
func (s *Server) AttachDB(db *Database) {
	s.DB = db
	for _, t := range db.Tables {
		t.Data.Region = s.M.ReserveRegion(t.NominalDataBytes() + (64 << 20))
		s.BP.Register(t.Data)
	}
	for _, ix := range db.BTrees {
		ix.File.Region = s.M.ReserveRegion(ix.File.Bytes() + (64 << 20))
		s.BP.Register(ix.File)
	}
	for _, csi := range db.CSIs {
		csi.Ix.File.Region = s.M.ReserveRegion(csi.Ix.File.Bytes() + (64 << 20))
		s.BP.Register(csi.Ix.File)
	}
}

// WarmBufferPool marks data resident post-load, as after the paper's
// load-then-run procedure (up to pool capacity). Primary storage warms
// first — columnstores and indexes, then row heaps of non-CCI tables —
// so what stays cold when the database exceeds memory is realistic.
func (s *Server) WarmBufferPool() {
	for _, csi := range s.DB.CSIs {
		s.BP.WarmFile(csi.Ix.File)
	}
	for _, ix := range s.DB.BTrees {
		s.BP.WarmFile(ix.File)
	}
	for _, t := range s.DB.Tables {
		if !s.DB.IsCCI(t) {
			s.BP.WarmFile(t.Data)
		}
	}
}

// PickCore assigns a session to an allowed core round-robin. An empty
// cpuset (possible transiently while a fault or reconfiguration swaps the
// allowed set) falls back to core 0 rather than panicking.
func (s *Server) PickCore() int {
	ids := s.CPUs.Allowed()
	if len(ids) == 0 {
		s.Ctr.CpusetFallbacks++
		return 0
	}
	c := ids[s.nextCore%len(ids)]
	s.nextCore++
	return c
}

// NewCtx builds an execution context for a session proc.
func (s *Server) NewCtx(p *sim.Proc) *access.Ctx {
	return &access.Ctx{
		P:        p,
		Core:     s.PickCore(),
		M:        s.M,
		BP:       s.BP,
		Ctr:      s.Ctr,
		Cost:     s.Cost,
		RNG:      s.Sim.RNG().Fork(),
		MetaBase: s.metaBase,
	}
}

// EffectiveDop returns the DOP the resource governor offers a query.
func (s *Server) EffectiveDop(maxdopHint int) int {
	d := s.CPUs.Count()
	if s.Cfg.MaxDOP > 0 && s.Cfg.MaxDOP < d {
		d = s.Cfg.MaxDOP
	}
	if maxdopHint > 0 && maxdopHint < d {
		d = maxdopHint
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Planner builds an optimizer bound to current server state.
func (s *Server) Planner(dop int) *opt.Planner {
	pl := opt.NewPlanner(s.Cost)
	pl.WorkspaceBytes = s.workspace
	pl.GrantFrac = s.Cfg.GrantFrac
	pl.BufferBytes = s.BP.CapacityPages() * 8192
	if s.DB != nil {
		pl.DBBytes = s.DB.TotalBytes()
	}
	pl.Dop = dop
	return pl
}

// acquireWorkspace blocks until bytes of query workspace are available
// (RESOURCE_SEMAPHORE) or, unless limit is sim.Forever, until limit
// passes: then it returns (0, true) so the caller can degrade or kill the
// statement instead of queueing forever. Requests larger than the whole
// workspace are clamped — they could otherwise never be satisfied. It
// returns the bytes actually reserved: 0 when the wait timed out or was
// abandoned because the server stopped, in which case nothing was charged
// and nothing must be released.
func (s *Server) acquireWorkspace(p *sim.Proc, bytes int64, limit sim.Time) (granted int64, timedOut bool) {
	if bytes > s.workspace {
		bytes = s.workspace
	}
	start := p.Now()
	for s.workspaceUse+bytes > s.workspace-s.faultReserve && !s.stopped {
		if limit == sim.Forever {
			s.grantQ.Wait(p) // no give-up time, so no timer event
			continue
		}
		rem := sim.Duration(limit - p.Now())
		if rem <= 0 {
			timedOut = true
			break
		}
		s.grantQ.WaitTimeout(p, rem)
	}
	metrics.ChargeWait(p, s.Ctr, metrics.WaitResourceSem, sim.Duration(p.Now()-start))
	if timedOut || s.workspaceUse+bytes > s.workspace-s.faultReserve {
		return 0, timedOut // timed out, or woken by Stop rather than by capacity
	}
	s.workspaceUse += bytes
	return bytes, false
}

func (s *Server) releaseWorkspace(bytes int64) {
	s.workspaceUse -= bytes
	if s.workspaceUse < 0 {
		s.workspaceUse = 0
	}
	s.grantQ.WakeAll(s.Sim)
}

// QueryResult is one analytical query execution. Err is non-nil when the
// statement failed (canceled, deadline, IO); Rows are then nil.
type QueryResult struct {
	Rows    []exec.Row
	Stats   exec.QueryStats
	Info    opt.PlanInfo
	Elapsed sim.Duration
	Err     *QueryError

	// Stmt holds the counters attributed to this statement (waits, buffer
	// traffic, I/O, spills); Trace the per-operator span tree when
	// Cfg.Trace is on.
	Stmt  *metrics.Counters
	Trace *trace.Trace
}

// runQuery optimizes and executes a logical query on the session proc —
// the execution core behind Session.Query, which is the public surface.
// maxdopHint mirrors the MAXDOP query hint (0 = server setting); grantPct
// overrides the per-query grant cap when > 0 (the paper's Section 8
// query-memory-limit knob).
//
// With Cfg.StmtTimeout set, the statement runs under a deadline: a query
// still waiting for its memory grant halfway to the deadline is
// re-planned at half the DOP and a quarter of the grant (degrading
// gracefully under sustained pressure instead of queueing forever); one
// that cannot start or finish by the deadline fails with ErrDeadline.
func (s *Server) runQuery(p *sim.Proc, q *opt.LNode, maxdopHint int, grantPct float64) (res QueryResult) {
	start := p.Now()
	var deadline sim.Time
	if s.Cfg.StmtTimeout > 0 {
		deadline = start + sim.Time(s.Cfg.StmtTimeout)
	}
	dop := s.EffectiveDop(maxdopHint)
	pl := s.Planner(dop)
	if grantPct > 0 {
		pl.GrantFrac = grantPct
	}
	plan, info := pl.Plan(q)

	// Attribute everything from here on — grant waits, worker I/O, spills —
	// to this statement. The session's previous attachment (e.g. a TP
	// transaction's) is restored on return.
	stmt := &metrics.Counters{}
	prevAttr := p.Attr()
	p.SetAttr(stmt)
	defer p.SetAttr(prevAttr)

	label := q.Label
	if label == "" {
		label = info.Shape
	}
	degraded := false
	defer func() {
		res.Stmt = stmt
		s.QStats.Record(label, metrics.Exec{
			Elapsed:  res.Elapsed,
			Rows:     int64(len(res.Rows)),
			Failed:   res.Err != nil,
			Killed:   res.Err != nil && res.Err.Kind == ErrDeadline,
			Degraded: degraded,
			Stmt:     stmt,
		})
	}()

	fail := func(kind ErrKind, op string) QueryResult {
		return QueryResult{
			Info: info, Elapsed: sim.Duration(p.Now() - start),
			Err: &QueryError{Kind: kind, Op: op, At: p.Now()},
		}
	}
	var granted int64
	if info.GrantBytes > 0 {
		// With a deadline, wait at most half of it for the full grant.
		limit := sim.Forever
		if deadline != 0 {
			limit = start + (deadline-start)/2
		}
		var timedOut bool
		granted, timedOut = s.acquireWorkspace(p, info.GrantBytes, limit)
		if timedOut {
			// Degrade: re-plan at half the DOP and a quarter of the
			// grant, then wait out the rest of the deadline.
			s.Ctr.DegradedPlans++
			stmt.DegradedPlans++
			degraded = true
			if dop = info.Dop / 2; dop < 1 {
				dop = 1
			}
			pl = s.Planner(dop)
			gf := s.Cfg.GrantFrac
			if grantPct > 0 {
				gf = grantPct
			}
			pl.GrantFrac = gf / 4
			plan, info = pl.Plan(q)
			if info.GrantBytes > 0 {
				granted, timedOut = s.acquireWorkspace(p, info.GrantBytes, deadline)
				if timedOut {
					s.Ctr.DeadlineKills++
					s.Ctr.QueriesFailed++
					return fail(ErrDeadline, "grant")
				}
			}
		}
		if info.GrantBytes > 0 && granted == 0 {
			// Woken by Stop with no capacity: executing anyway would run
			// an unreserved-memory query during shutdown.
			s.Ctr.QueriesCanceled++
			return fail(ErrCanceled, "grant")
		}
		if granted > 0 {
			defer s.releaseWorkspace(granted)
		}
	}
	env := &exec.Env{
		Sim: s.Sim, M: s.M, BP: s.BP, Dev: s.Dev, Ctr: s.Ctr,
		Cost: s.Cost, RNG: s.Sim.RNG().Fork(),
		Cores: s.CPUs.Allowed(), Dop: info.Dop,
		Grant:      &exec.Grant{Bytes: info.GrantBytes},
		TempRegion: s.tempBase,
		MetaBase:   s.metaBase,
		Home:       s.PickCore(),
		Deadline:   deadline,
	}
	if s.Cfg.Trace {
		env.Trace = trace.New(label, stmt)
	}
	rows, st := exec.Run(p, env, plan)
	res = QueryResult{Rows: rows, Stats: st, Info: info, Elapsed: sim.Duration(p.Now() - start), Trace: env.Trace}
	if err := p.TakeFail(); err != nil {
		s.Ctr.QueriesFailed++
		res.Err = &QueryError{Kind: ErrIO, Op: "exec", At: p.Now()}
	} else if st.Killed {
		s.Ctr.DeadlineKills++
		s.Ctr.QueriesFailed++
		res.Err = &QueryError{Kind: ErrDeadline, Op: "exec", At: p.Now()}
	} else {
		s.Ctr.QueriesDone++
	}
	return res
}

// ExplainQuery returns the chosen plan without executing it (Figure 7).
func (s *Server) ExplainQuery(q *opt.LNode, maxdopHint int) (*exec.Node, opt.PlanInfo) {
	dop := s.EffectiveDop(maxdopHint)
	return s.Planner(dop).Plan(q)
}

func (s *Server) tableAllocLatch(t int) *lock.NamedLatch {
	l := s.allocLatch[t]
	if l == nil {
		l = lock.NewNamedLatch("ALLOC", s.Ctr)
		s.allocLatch[t] = l
	}
	return l
}
