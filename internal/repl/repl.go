// Package repl implements log-shipping replication on the engine's typed
// logical WAL: one primary, N standbys, each standby a full simulated
// machine (its own device, bandwidth, buffer pool, and WAL) continuously
// applying the primary's durable record stream. Commit modes charge the
// cross-node acknowledgement path (sync / quorum(k) / async) through the
// simulated replication links and replica WAL devices — the commit-path
// placement question *OLTP on Hardware Islands* raises, run against the
// paper's storage-bandwidth throttles. WAL archiving, snapshot
// marks, and point-in-time recovery layer on top (archive.go), and
// failover promotes the most caught-up standby with a measured RTO
// (failover.go).
//
// Everything runs on one sim clock, so replicated runs are bit-identical
// at any host parallelism; a server with no cluster attached behaves
// exactly as before this package existed.
package repl

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Mode is the replication commit mode.
type Mode int

// Commit modes.
const (
	// ModeAsync returns from commit after local group commit; standbys
	// apply in the background and lag is unbounded.
	ModeAsync Mode = iota
	// ModeSync holds each commit until every standby has the commit
	// record durable in its own WAL.
	ModeSync
	// ModeQuorum holds each commit until Quorum standbys are durable.
	ModeQuorum
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeQuorum:
		return "quorum"
	default:
		return "async"
	}
}

// ErrNoAck is returned through txn.Manager.CommitWait when a sync/quorum
// commit cannot collect its replica acknowledgements (link partitioned
// past the ack timeout, or the cluster shut down). The transaction is
// locally durable; the client must treat the outcome as unknown.
var ErrNoAck = errors.New("repl: commit acknowledgement timeout")

// Fixed cluster parameters.
const (
	linkLatency = 200 * sim.Microsecond // one-way link latency
	linkMBps    = 1000                  // per-link shipping bandwidth
	// stalenessBytes bounds how far (in WAL bytes) a standby may trail
	// the primary and still serve routed reads.
	stalenessBytes = 4 << 20
	lagInterval    = 100 * sim.Millisecond // replica-lag sampling period
	// failDetect is the failure-detection delay charged before promotion
	// begins on a primary crash.
	failDetect = 500 * sim.Millisecond
	// archiveSegBytes seals archive segments at this size; the end LSN of
	// every snapshotEvery-th sealed segment is a snapshot.
	archiveSegBytes = 32 << 10
	snapshotEvery   = 2
)

// Config sizes a cluster. Zero values take defaults.
type Config struct {
	Mode     Mode
	Quorum   int // acks required in ModeQuorum (clamped to [1, Replicas])
	Replicas int // number of standbys (default 1)

	AckTimeout sim.Duration // bound on sync/quorum commit waits (default 10s)

	// TraceCommits records cross-node span trees for the first commits
	// that enter sync/quorum commit-wait (see trace.go / CommitTraces).
	// Off by default: with it off the cluster's behavior is bit-identical
	// to a build without tracing.
	TraceCommits bool

	// Archive arms WAL archiving with snapshot marks, and with them
	// point-in-time recovery (archive.go).
	Archive bool

	// NewImage builds an identical copy of the primary's dataset —
	// the same Build call with the same parameters, which yields the same
	// table/index file IDs (the catalog allocates them deterministically).
	// Called once per standby, and once per PITR restore and per check of
	// one against a pure replay.
	NewImage func() *engine.Database
}

func (cfg Config) withDefaults() Config {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = 1
	}
	if cfg.Quorum > cfg.Replicas {
		cfg.Quorum = cfg.Replicas
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 10 * sim.Second
	}
	return cfg
}

// Standby is one replica: a full engine.Server (own device, buffer pool,
// WAL) whose log holds an exact byte-for-byte prefix of the primary's
// LSN space — the primary's own record objects, re-appended with their
// original byte sizes, so standby LSNs equal primary LSNs and lag is a
// byte subtraction.
type Standby struct {
	Srv *engine.Server
	DB  *engine.Database

	c    *Cluster
	idx  int
	link *sim.FluidServer

	reader *wal.StreamReader // over the primary's log

	inbox  []*wal.Record // shipped, not yet appended/applied
	inboxQ sim.WaitQueue

	apply      *applyState
	appliedLSN int64 // highest LSN applied to the standby image

	shipperDone bool
	applierDone bool

	maxLag int64 // largest apply lag the lag tracker sampled, in WAL bytes
}

// AppliedLSN returns the highest LSN applied to the standby's image.
func (s *Standby) AppliedLSN() int64 { return s.appliedLSN }

// DurableLSN returns the standby's WAL-durable LSN (the ack basis).
func (s *Standby) DurableLSN() int64 { return s.Srv.Log.FlushedLSN() }

// Cluster wires a primary to its standbys. Create with New after the
// primary has ArmRecovery'd (typed records are the replication stream)
// and AttachDB'd; call Start alongside the primary's Start.
type Cluster struct {
	Primary *engine.Server
	Cfg     Config

	Standbys []*Standby
	Arch     *Archiver // nil unless Cfg.Archive

	sm *sim.Sim

	linkDown bool
	linkQ    sim.WaitQueue // shippers park here while partitioned
	ackQ     sim.WaitQueue // sync/quorum commit waiters

	stopped  bool
	crashAt  sim.Time // primary crash instant (failover)
	promoted int      // standby index after Failover, else -1

	ackedLSNs []int64 // commit LSNs acknowledged to clients (sync/quorum)

	// Commit tracing (Cfg.TraceCommits; trace.go). pendingTraces is empty
	// whenever tracing is off, so the pipeline hooks reduce to one
	// empty-slice check.
	pendingTraces []*commitTrace
	commitTraces  []*commitTrace

	// ackHist, when the primary's telemetry registry is armed, observes
	// each acknowledged sync/quorum commit's end-to-end wait.
	ackHist *telemetry.Hist
}

// New builds a cluster around an armed primary. The standbys' dataset
// images come from cfg.NewImage; each standby inherits the primary's
// server config (minus replication fields) on the shared sim clock. The
// primary's database must carry no columnstore index: the apply path
// redoes table rows and B-tree entries only.
func New(primary *engine.Server, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if !primary.Log.Recording {
		panic("repl: primary must ArmRecovery before New (typed records are the stream)")
	}
	if cfg.NewImage == nil {
		panic("repl: Config.NewImage is required")
	}
	if len(primary.DB.CSIs) > 0 {
		panic("repl: the apply path does not replay columnstore indexes")
	}
	c := &Cluster{Primary: primary, Cfg: cfg, sm: primary.Sim, promoted: -1}
	scfg := primary.Cfg
	// Standbys don't run their own registries: replication telemetry
	// (per-standby lag, ack latency, shipped bytes) registers on the
	// primary's registry instead, so one sampler covers the cluster.
	scfg.Telemetry = false
	for i := 0; i < cfg.Replicas; i++ {
		img := cfg.NewImage()
		srv := engine.NewServerOn(primary.Sim, scfg)
		srv.Log.Recording = true
		srv.Log.MaxFlushBytes = primary.Log.MaxFlushBytes
		srv.AttachDB(img)
		srv.WarmBufferPool()
		s := &Standby{
			Srv:    srv,
			DB:     img,
			c:      c,
			idx:    i,
			link:   sim.NewFluidServer(linkMBps * 1e6),
			reader: primary.Log.NewStreamReader(),
			apply:  newApplyState(img),
		}
		c.Standbys = append(c.Standbys, s)
	}
	if cfg.Archive {
		c.Arch = newArchiver(c)
	}
	return c
}

// Start launches the replication pipeline: each standby's log writer,
// shipper, and applier, the lag sampler, the archiver, and — for sync /
// quorum modes — the primary's commit-wait hook. It also registers a
// stop hook on the primary so shutdown (or crash) propagates.
func (c *Cluster) Start() {
	for _, s := range c.Standbys {
		s.Srv.Log.Start()
		c.runShipper(s)
		c.runApplier(s)
	}
	if c.Arch != nil {
		c.Arch.run()
	}
	c.runLagTracker()
	c.registerTelemetry()
	if c.Cfg.Mode != ModeAsync {
		c.Primary.Txns.CommitWait = c.commitWait
	}
	c.Primary.AddStopHook(func() {
		c.stopped = true
		if c.crashAt == 0 {
			c.crashAt = c.sm.Now()
		}
		c.linkQ.WakeAll(c.sm)
		c.ackQ.WakeAll(c.sm)
	})
}

// Shutdown stops the standby servers. Call after the primary has stopped
// and the pipeline has drained (Quiesced, or run until no event is left).
func (c *Cluster) Shutdown() {
	for _, s := range c.Standbys {
		s.Srv.Stop()
		s.inboxQ.WakeAll(c.sm)
	}
}

// Quiesced reports whether the whole pipeline has caught up: every
// durable primary record shipped, appended durably, and applied on every
// standby, with nothing left in flight.
func (c *Cluster) Quiesced() bool {
	flushed := c.Primary.Log.FlushedLSN()
	if c.Primary.Log.AppendedLSN() != flushed {
		return false
	}
	for _, s := range c.Standbys {
		if len(s.inbox) > 0 || s.appliedLSN < flushed {
			return false
		}
	}
	return true
}

// CheckDigests compares every standby's state digest against the
// primary's. Valid at quiesce after all client transactions have ended
// cleanly (committed durable or aborted and undone); a mismatch means
// the apply path diverged.
func (c *Cluster) CheckDigests() error {
	want := engine.DigestDB(c.Primary.DB)
	for _, s := range c.Standbys {
		if got := engine.DigestDB(s.DB); got != want {
			return fmt.Errorf("repl: standby %d digest %016x != primary %016x (applied %d, primary flushed %d)",
				s.idx, got, want, s.appliedLSN, c.Primary.Log.FlushedLSN())
		}
	}
	return nil
}

// RouteRead picks the node to serve an analytical read: the most
// caught-up standby when it trails the primary by at most stalenessBytes
// of WAL, else the primary. Returns -1 for the primary, otherwise a
// standby index.
func (c *Cluster) RouteRead() int {
	if best := c.mostCaughtUp(); best >= 0 && c.lag(c.Standbys[best]) <= stalenessBytes {
		return best
	}
	return -1
}

// mostCaughtUp returns the index of the standby with the highest applied
// LSN (the first on a tie), or -1 with no standbys.
func (c *Cluster) mostCaughtUp() int {
	best := -1
	for i, s := range c.Standbys {
		if best < 0 || s.appliedLSN > c.Standbys[best].appliedLSN {
			best = i
		}
	}
	return best
}

// lag returns s's apply lag behind the primary's durable LSN in WAL
// bytes, floored at 0.
func (c *Cluster) lag(s *Standby) int64 {
	return max(c.Primary.Log.FlushedLSN()-s.appliedLSN, 0)
}

// runShipper spawns the per-standby shipping proc: it cursors the
// primary's durable record stream, charges link bandwidth + latency, and
// delivers batches to the standby inbox. A partitioned link parks the
// shipper; records becoming durable while partitioned are shipped on
// heal. When the primary's log stops (shutdown or crash), the remaining
// durable tail is shipped and the shipper exits.
func (c *Cluster) runShipper(s *Standby) {
	c.sm.Spawn(fmt.Sprintf("repl-ship-%d", s.idx), func(p *sim.Proc) {
		defer func() {
			s.shipperDone = true
			s.inboxQ.WakeAll(c.sm)
		}()
		for {
			batch, ok := s.reader.NextBatch(p)
			if !ok {
				return
			}
			for c.linkDown && !c.stopped {
				c.linkQ.Wait(p)
			}
			if c.linkDown {
				return // primary died while partitioned: the tail never arrives
			}
			var bytes int64
			for _, r := range batch {
				bytes += r.Bytes
			}
			s.link.Serve(p, float64(bytes))
			p.Sleep(linkLatency)
			c.Primary.Ctr.ReplShippedBatches++
			c.Primary.Ctr.ReplShippedBytes += bytes
			s.inbox = append(s.inbox, batch...)
			if len(c.pendingTraces) > 0 {
				c.traceShipped(s.idx, batch[len(batch)-1].LSN, p.Now())
			}
			s.inboxQ.WakeAll(c.sm)
		}
	})
}

// runApplier spawns the per-standby apply proc: append shipped records
// to the standby's own WAL as the primary's own objects
// (wal.Log.AppendShipped), wait for them to be durable on the standby's
// device, then redo committed transactions against the standby image,
// charging page I/O through the standby's buffer pool. Only the durable
// prefix is ever applied, so apply state always matches the standby's
// log.
func (c *Cluster) runApplier(s *Standby) {
	c.sm.Spawn(fmt.Sprintf("repl-apply-%d", s.idx), func(p *sim.Proc) {
		defer func() {
			s.applierDone = true
			c.ackQ.WakeAll(c.sm)
		}()
		// batch and s.inbox swap backing arrays: the shipper keeps
		// appending to the inbox while this batch waits to be durable.
		var batch []*wal.Record
		for {
			for len(s.inbox) == 0 && !s.shipperDone {
				s.inboxQ.Wait(p)
			}
			if len(s.inbox) == 0 {
				return
			}
			batch, s.inbox = s.inbox, batch[:0]
			end := s.Srv.Log.AppendShipped(batch)
			s.Srv.Log.WaitDurable(p, end)
			if len(c.pendingTraces) > 0 {
				c.traceDurable(s.idx, s.Srv.Log.FlushedLSN(), p.Now())
			}
			applyStart := p.Now()
			txns0 := s.apply.appliedTxns
			for _, r := range batch {
				if r.LSN > s.Srv.Log.FlushedLSN() {
					break // Shutdown stopped the standby log before it flushed
				}
				c.chargeApply(p, s, r)
				s.apply.Apply(r)
				s.appliedLSN = r.LSN
			}
			s.Srv.Ctr.ReplAppliedTxns += s.apply.appliedTxns - txns0
			metrics.ChargeWait(p, s.Srv.Ctr, metrics.WaitReplApply, sim.Duration(p.Now()-applyStart))
			// The apply-end timestamp is taken at the same instant the ack
			// queue is woken, so a commit whose quorum this iteration
			// satisfies observes quorumAt == applyEnd exactly and its span
			// phases sum to the measured commit latency.
			if len(c.pendingTraces) > 0 {
				c.traceApplyEnd(s.idx, s.appliedLSN, p.Now())
			}
			c.ackQ.WakeAll(c.sm)
		}
	})
}

// chargeApply charges the standby-side redo cost of one record: the
// covered page goes through the standby's buffer pool (latch, device
// read on miss, dirtying) exactly as primary-side modifications do.
func (c *Cluster) chargeApply(p *sim.Proc, s *Standby, r *wal.Record) {
	if r.Page.Zero() {
		return
	}
	f := s.apply.files[r.Page.File]
	if f == nil {
		return
	}
	s.Srv.BP.Probe(p, f, r.Page.Page, true, s.Srv.Cost.RowOverheadNs)
}

// commitWait is the txn.Manager hook for sync/quorum modes: it holds the
// committing proc (locks still held) until enough standbys report the
// commit record durable in their own WAL, then charges one link latency
// for the acknowledgement trip. The wait is bounded by AckTimeout so a
// partitioned link degrades to unacknowledged commits instead of
// wedging the workload.
func (c *Cluster) commitWait(p *sim.Proc, lsn int64) error {
	need := len(c.Standbys)
	if c.Cfg.Mode == ModeQuorum {
		need = c.Cfg.Quorum
	}
	start := p.Now()
	ct := c.traceRegister(lsn, start)
	deadline := start + sim.Time(c.Cfg.AckTimeout)
	ok := false
	var quorumAt sim.Time
	for !c.stopped {
		n := 0
		for _, s := range c.Standbys {
			if s.Srv.Log.FlushedLSN() >= lsn {
				n++
			}
		}
		if n >= need && !c.linkDown {
			ok = true
			quorumAt = p.Now()
			break
		}
		rem := sim.Duration(deadline - p.Now())
		if rem <= 0 {
			break
		}
		c.ackQ.WaitTimeout(p, rem)
	}
	if ok {
		p.Sleep(linkLatency) // the acknowledgement's trip back
		c.ackedLSNs = append(c.ackedLSNs, lsn)
		c.ackHist.Observe(sim.Duration(p.Now() - start))
	}
	c.traceResolve(ct, quorumAt, p.Now(), ok)
	metrics.ChargeWait(p, c.Primary.Ctr, metrics.WaitReplAck, sim.Duration(p.Now()-start))
	if !ok {
		return ErrNoAck
	}
	return nil
}

// registerTelemetry publishes the cluster's replication series on the
// primary's registry: shipping volume, per-standby apply lag, applied
// transactions, and acknowledged-commit latency. Registration methods
// are no-ops on a nil registry, so an unarmed primary skips all of it.
func (c *Cluster) registerTelemetry() {
	r := c.Primary.Tel
	r.CounterFunc("repl", "shipped_bytes", "B", func() float64 {
		return float64(c.Primary.Ctr.ReplShippedBytes)
	})
	r.CounterFunc("repl", "shipped_batches", "ops", func() float64 {
		return float64(c.Primary.Ctr.ReplShippedBatches)
	})
	c.ackHist = r.Histogram("repl", "ack_latency")
	for i, s := range c.Standbys {
		s := s
		r.Gauge("repl", fmt.Sprintf("standby%d_lag_bytes", i), "B", func() float64 {
			return float64(c.lag(s))
		})
		r.CounterFunc("repl", fmt.Sprintf("standby%d_applied_txns", i), "ops", func() float64 {
			return float64(s.Srv.Ctr.ReplAppliedTxns)
		})
	}
}

// runLagTracker spawns the lag-tracking proc: every lagInterval it
// samples each standby's apply lag in WAL bytes into its running max.
func (c *Cluster) runLagTracker() {
	c.sm.Spawn("repl-lag", func(p *sim.Proc) {
		for !c.stopped {
			p.Sleep(lagInterval)
			if c.stopped {
				return
			}
			for _, s := range c.Standbys {
				s.maxLag = max(s.maxLag, c.lag(s))
			}
		}
	})
}

// MaxLagBytes returns the largest lag ever sampled on any standby.
func (c *Cluster) MaxLagBytes() int64 {
	var m int64
	for _, s := range c.Standbys {
		m = max(m, s.maxLag)
	}
	return m
}

// AckedLSNs returns the commit LSNs acknowledged to clients under
// sync/quorum mode, in ack order — the cluster-side ground truth the
// chaos harness audits client-observed acks against.
func (c *Cluster) AckedLSNs() []int64 { return c.ackedLSNs }

// Unhealthy reports a degraded replication plane — the serving layer's
// replication-health posture input: the links are partitioned, or every
// standby trails the primary past stalenessBytes, the bound RouteRead
// routes reads within.
func (c *Cluster) Unhealthy() bool {
	best := c.mostCaughtUp()
	return c.linkDown || (best >= 0 && c.lag(c.Standbys[best]) > stalenessBytes)
}

// SetLinkDown implements fault.ReplTarget: partition (true) or heal
// (false) every replication link. While down, shippers park, no batches
// arrive, and sync/quorum acks stop.
func (c *Cluster) SetLinkDown(down bool) {
	c.linkDown = down
	if !down {
		c.linkQ.WakeAll(c.sm)
		c.ackQ.WakeAll(c.sm)
	}
}

// SetReplicaFlushPenalty implements fault.ReplTarget: every standby WAL
// flush pays extra ns (0 clears) — the slow-replica degradation.
func (c *Cluster) SetReplicaFlushPenalty(ns float64) {
	for _, s := range c.Standbys {
		s.Srv.Log.SetFlushPenalty(ns)
	}
}
