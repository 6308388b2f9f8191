package harness

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
	"repro/internal/workload/openloop"
)

// maxWait bounds a wait for an event that may never come: the replication
// pipeline quiescing, a recovery cell's crash point firing.
const maxWait = 600 * sim.Second

// cell is a booted ASDB simulation: the primary with its dataset and,
// when replicated, the cluster and each standby image's dataset view. Its
// life is boot, start, drive, settle (DESIGN.md §7); a recovery cell ends
// in Recover instead of settle.
type cell struct {
	srv *engine.Server
	d   *asdb.Dataset
	cl  *repl.Cluster // nil on a single node
	ds  map[*engine.Database]*asdb.Dataset
}

// bootASDB builds ASDB at sf and boots a warm primary under k, not yet
// started. ro arms typed-record logging and the crash plan; rcfg (which
// needs ro: the records are the replication stream) adds its standbys on
// the same sim clock. The storage knobs apply to every node — the paper's
// bandwidth throttle hits the replica WAL devices the commit modes wait
// on, not just the primary.
func bootASDB(sf int, opt Options, k Knobs, ro *engine.RecoveryOptions, rcfg *repl.Config) *cell {
	defer setupTimer()()
	acfg := asdbConfig(sf, opt)
	c := &cell{d: asdb.Build(acfg)}
	c.srv = warmServer(c.d.DB, opt, k)
	if ro != nil {
		c.srv.ArmRecovery(*ro)
	}
	if rcfg == nil {
		return c
	}
	c.ds = make(map[*engine.Database]*asdb.Dataset)
	cfg := *rcfg
	cfg.NewImage = func() *engine.Database {
		d := asdb.Build(acfg)
		c.ds[d.DB] = d
		return d.DB
	}
	c.cl = repl.New(c.srv, cfg)
	for _, s := range c.cl.Standbys {
		s.Srv.BlkIO.SetReadLimit(k.ReadLimitMBps)
		s.Srv.BlkIO.SetWriteLimit(k.WriteLimitMBps)
	}
	return c
}

// start starts the primary and the replication pipeline.
func (c *cell) start() {
	c.srv.Start()
	if c.cl != nil {
		c.cl.Start()
	}
}

// drive runs the closed-loop ASDB client mix against the primary until
// the given instant (or the primary stops).
func (c *cell) drive(opt Options, until sim.Time) {
	asdb.RunClients(c.srv, c.d, workload(WAsdb).drivers(opt), asdb.DefaultMix(), until, new(asdb.Stats))
}

// onCrash spawns the failover driver: it watches for the primary's crash
// until deadline and runs fn on its own proc if the crash fired.
func (c *cell) onCrash(name string, deadline sim.Time, fn func(p *sim.Proc)) {
	c.srv.Sim.Spawn(name, func(p *sim.Proc) {
		for !c.srv.Crashed() && p.Now() < deadline {
			p.Sleep(10 * sim.Millisecond)
		}
		if c.srv.Crashed() {
			fn(p)
		}
	})
}

// settle ends a cell once its drivers are done. A primary that is still
// up is stopped cleanly — with a cluster, only after the replication
// pipeline has drained and every standby's state digest equals the
// primary's (the verdict; "" when they do or there is nothing to compare).
// A crashed primary is left as it fell: a clean stop would turn a later
// Crash or Recover into a no-op. The simulation then runs until no event
// is left, and again after the standbys shut down. A proc still live then
// is parked for good on a wakeup nothing will send, so settle panics.
func settle(srv *engine.Server, cl *repl.Cluster) string {
	sm, verdict := srv.Sim, ""
	if !srv.Crashed() {
		if cl != nil {
			for deadline := sm.Now() + sim.Time(maxWait); !cl.Quiesced() && sm.Now() < deadline; {
				sm.Run(sm.Now() + sim.Time(sim.Second))
			}
			if !cl.Quiesced() {
				verdict = "replication pipeline did not quiesce"
			} else if err := cl.CheckDigests(); err != nil {
				verdict = err.Error()
			}
		}
		srv.Stop()
	}
	sm.Run(sim.Forever)
	if cl != nil {
		cl.Shutdown()
		sm.Run(sim.Forever)
	}
	if n := sm.Live(); n != 0 {
		panic(fmt.Sprintf("harness: %d procs still live after settle", n))
	}
	return verdict
}

// offeredLoad draws the open-loop traffic plan of the serving and chaos
// cells from srv's RNG: connections arriving at rate per second through
// warmup and measurement, 2 % of requests analytical and, with storm, a
// 6x arrival burst through the middle half of the measure window.
func offeredLoad(srv *engine.Server, opt Options, rate float64, storm bool) *openloop.Plan {
	cfg := openloop.Config{Rate: rate, Horizon: opt.Warmup + opt.Measure, QueryFrac: 0.02}
	if storm {
		cfg.Storm = &openloop.Storm{At: opt.Warmup + opt.Measure/4, Dur: opt.Measure / 2, X: 6}
	}
	return openloop.Build(cfg, srv.Sim.RNG().Fork())
}
