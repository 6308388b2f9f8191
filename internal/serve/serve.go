// Package serve is the network serving front end: it listens on the
// simulated transport (internal/net), speaks the wire protocol
// (internal/proto), and multiplexes client requests onto a bounded pool
// of engine.Session workers.
//
// Admission control is first-class and layered the way production
// engines do it:
//
//  1. the transport's accept backlog bounds pending connections (dials
//     past it are refused before a byte of protocol runs),
//  2. the run queue bounds admitted-but-unscheduled requests — a request
//     arriving past the bound is shed immediately with CodeOverloaded
//     rather than queued into a latency collapse,
//  3. before shedding, the front end degrades: once the run queue passes
//     DegradeDepth, analytical statements execute with half the offered
//     DOP and a quarter of the memory-grant fraction (the same
//     half-DOP/quarter-grant posture the engine's deadline governor
//     uses), trading per-query speed for goodput.
//
// Server.Stop during an in-flight admission wait is the failure mode the
// run-queue drain exists for: queued requests are answered with
// CodeShutdown (control-plane Deliver — the stop hook runs outside any
// proc), workers are woken to exit, and the listener closes.
package serve

import (
	"repro/internal/engine"
	"repro/internal/net"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
)

// Config places the front end.
type Config struct {
	Addr string // listen address on the simulated network (default "db")
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "db"
	}
	return c
}

// The front end's fixed shape.
const (
	Workers      = 8           // worker sessions executing requests
	RunQueue     = 4 * Workers // admitted-request bound; past it requests are shed
	DegradeDepth = 2 * Workers // queue depth past which queries run degraded
)

// request is one admitted statement waiting for a worker.
type request struct {
	conn     *net.Conn
	kind     proto.Kind
	id       uint64
	req      proto.Request
	degraded bool // admitted past DegradeDepth: run with reduced resources
}

// Counters is the front end's cumulative accounting.
type Counters struct {
	Accepted   int64 // connections accepted
	Shed       int64 // requests rejected with CodeOverloaded (run queue full)
	Degraded   int64 // query requests executed in degraded posture
	Served     int64 // requests answered with KResult
	Failed     int64 // requests answered with CodeExecFailed
	BadRequest int64 // malformed frames / unknown statement names
	Shutdown   int64 // requests answered with CodeShutdown
	Failover   int64 // requests answered with CodeFailover (primary crashed)
	Routed     int64 // degraded queries shed to a read replica
}

// Frontend serves the ASDB statement catalog over the simulated network.
type Frontend struct {
	Srv *engine.Server
	D   *asdb.Dataset
	Cfg Config
	Net *net.Network
	Ctr Counters

	// cluster is the cluster front end this one serves an epoch of (nil
	// on a single node): acked execs go to its ack log under epoch, and
	// its replication health shapes admission and read routing.
	cluster *ClusterFrontend
	epoch   int

	ln      *net.Listener
	runq    []request
	workq   sim.WaitQueue
	conns   map[*net.Conn]struct{}
	stopped bool
}

// New builds a front end for srv serving d's catalog on its own private
// network segment. Call Start before running the simulation.
func New(srv *engine.Server, d *asdb.Dataset, cfg Config) *Frontend {
	return NewOn(net.New(srv.Sim, net.Config{}), srv, d, cfg)
}

// NewOn builds a front end on an existing network segment, so several
// front ends (a primary and a promoted standby) can share one segment
// and one client population.
func NewOn(nw *net.Network, srv *engine.Server, d *asdb.Dataset, cfg Config) *Frontend {
	return &Frontend{
		Srv:   srv,
		D:     d,
		Cfg:   cfg.withDefaults(),
		Net:   nw,
		conns: make(map[*net.Conn]struct{}),
	}
}

// Start binds the listener, spawns the worker pool and accept loop, and
// hooks Stop into the engine's shutdown sequence.
func (f *Frontend) Start() error {
	ln, err := f.Net.Listen(f.Cfg.Addr)
	if err != nil {
		return err
	}
	f.ln = ln
	// Workers fork their session contexts here, in spawn order, so the
	// engine's RNG stream stays deterministic regardless of traffic.
	for i := 0; i < Workers; i++ {
		f.Srv.Sim.Spawn("serve-worker", f.worker)
	}
	f.Srv.Sim.Spawn("serve-accept", f.acceptLoop)
	f.Srv.AddStopHook(f.Stop)
	f.registerTelemetry()
	return nil
}

func (f *Frontend) registerTelemetry() {
	r := f.Srv.Tel // nil receiver is a no-op registry
	r.Gauge("serve", "accept_queue", "conns", func() float64 { return float64(f.ln.Depth()) })
	r.Gauge("serve", "run_queue", "requests", func() float64 { return float64(len(f.runq)) })
	r.Gauge("serve", "active_sessions", "conns", func() float64 { return float64(len(f.conns)) })
	r.CounterFunc("serve", "accepted", "conns", func() float64 { return float64(f.Ctr.Accepted) })
	r.CounterFunc("serve", "refused", "conns", func() float64 { return float64(f.ln.Refused) })
	r.CounterFunc("serve", "shed", "requests", func() float64 { return float64(f.Ctr.Shed) })
	r.CounterFunc("serve", "degraded", "requests", func() float64 { return float64(f.Ctr.Degraded) })
	r.CounterFunc("serve", "served", "requests", func() float64 { return float64(f.Ctr.Served) })
	r.CounterFunc("serve", "routed_reads", "requests", func() float64 { return float64(f.Ctr.Routed) })
	f.Net.RegisterTelemetry(r)
}

// stopCode is the typed code for requests cut off by this front end
// going away: a crashed primary interrupts sessions with CodeFailover
// (the client may safely retry — nothing uncommitted survives), a
// planned stop with CodeShutdown.
func (f *Frontend) stopCode() (proto.Code, string) {
	if f.Srv.Crashed() {
		return proto.CodeFailover, "primary crashed"
	}
	return proto.CodeShutdown, "server stopping"
}

// Stop is idempotent and runs from the engine's stop hooks — outside any
// proc. It answers every queued request with CodeShutdown (zero-cost
// Deliver: nothing can park here), wakes the workers so they exit, and
// closes the listener so acceptors return.
func (f *Frontend) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	code, msg := f.stopCode()
	for _, r := range f.runq {
		r.conn.Deliver(proto.EncodeError(r.id, code, msg))
		if code == proto.CodeFailover {
			f.Ctr.Failover++
		} else {
			f.Ctr.Shutdown++
		}
	}
	f.runq = nil
	f.workq.WakeAll(f.Srv.Sim)
	f.ln.Close()
	for c := range f.conns {
		c.Close()
	}
}

func (f *Frontend) acceptLoop(p *sim.Proc) {
	for {
		c, err := f.ln.Accept(p)
		if err != nil {
			return
		}
		f.Ctr.Accepted++
		f.conns[c] = struct{}{}
		f.Srv.Sim.Spawn("serve-conn", func(p *sim.Proc) { f.handle(p, c) })
	}
}

// handle is the per-connection protocol loop: handshake, then admission
// for each request frame. Replies for shed/malformed requests are sent
// inline (they still cost wire time); admitted requests are answered by
// whichever worker executes them.
func (f *Frontend) handle(p *sim.Proc, c *net.Conn) {
	defer func() {
		delete(f.conns, c)
		c.Close()
	}()
	buf, err := c.Recv(p)
	if err != nil {
		return
	}
	fr, _, derr := proto.Decode(buf)
	if derr != nil || fr.Kind != proto.KHello {
		f.Ctr.BadRequest++
		c.Send(p, proto.EncodeError(fr.ID, proto.CodeBadRequest, "expected hello"))
		return
	}
	if _, herr := proto.DecodeHello(fr.Payload); herr != nil {
		f.Ctr.BadRequest++
		c.Send(p, proto.EncodeError(fr.ID, proto.CodeHandshake, herr.Error()))
		return
	}
	if err := c.Send(p, proto.EncodeHelloAck()); err != nil {
		return
	}
	for {
		buf, err := c.Recv(p)
		if err != nil {
			return
		}
		fr, _, derr := proto.Decode(buf)
		if derr != nil {
			f.Ctr.BadRequest++
			c.Send(p, proto.EncodeError(0, proto.CodeBadRequest, derr.Error()))
			return
		}
		switch fr.Kind {
		case proto.KGoodbye:
			return
		case proto.KExec, proto.KQuery:
			req, rerr := proto.DecodeRequest(fr.Payload, asdb.ServedNames()...)
			if rerr != nil {
				f.Ctr.BadRequest++
				c.Send(p, proto.EncodeError(fr.ID, proto.CodeBadRequest, rerr.Error()))
				continue
			}
			f.admit(p, c, fr, req)
		default:
			f.Ctr.BadRequest++
			c.Send(p, proto.EncodeError(fr.ID, proto.CodeBadRequest, "unexpected "+fr.Kind.String()))
		}
	}
}

// admit applies the run-queue policy to one request: shutdown beats
// overload beats degrade beats normal admission.
func (f *Frontend) admit(p *sim.Proc, c *net.Conn, fr proto.Frame, req proto.Request) {
	if f.stopped || f.Srv.Stopped() {
		code, msg := f.stopCode()
		if code == proto.CodeFailover {
			f.Ctr.Failover++
		} else {
			f.Ctr.Shutdown++
		}
		c.Send(p, proto.EncodeError(fr.ID, code, msg))
		return
	}
	if len(f.runq) >= RunQueue {
		f.Ctr.Shed++
		c.Send(p, proto.EncodeError(fr.ID, proto.CodeOverloaded, "run queue full"))
		return
	}
	degradeAt := DegradeDepth
	if f.cluster != nil && f.cluster.unhealthy() {
		// Unhealthy replication: degrade earlier to preserve headroom.
		degradeAt /= 2
	}
	f.runq = append(f.runq, request{
		conn: c, kind: fr.Kind, id: fr.ID, req: req,
		degraded: len(f.runq) >= degradeAt,
	})
	f.workq.WakeOne(f.Srv.Sim)
}

// workerState is one worker's session set: its primary session plus
// lazily-opened query-only sessions on any replica the cluster routes
// reads to (opened without BindCtx — queries draw no session RNG).
type workerState struct {
	sess   *engine.Session
	routed map[*engine.Server]*engine.Session
}

func (ws *workerState) on(p *sim.Proc, tsrv *engine.Server) *engine.Session {
	if s, ok := ws.routed[tsrv]; ok {
		return s
	}
	s := tsrv.Open(p)
	ws.routed[tsrv] = s
	return s
}

func (f *Frontend) worker(p *sim.Proc) {
	ws := &workerState{
		sess:   f.Srv.Open(p).BindCtx(),
		routed: make(map[*engine.Server]*engine.Session),
	}
	defer func() {
		for _, s := range ws.routed {
			s.Close()
		}
		ws.sess.Close()
	}()
	for {
		for len(f.runq) == 0 && !f.stopped && !f.Srv.Stopped() {
			f.workq.Wait(p)
		}
		if f.stopped || f.Srv.Stopped() {
			return
		}
		// Pop by copy, clearing the vacated slot: the queue keeps its
		// capacity and does not pin the popped request's connection.
		r := f.runq[0]
		n := copy(f.runq, f.runq[1:])
		f.runq[n] = request{}
		f.runq = f.runq[:n]
		f.execute(p, ws, r)
	}
}

// failCode types an execution failure: a crash mid-statement is a
// failover (retryable — the txn did not commit), anything else an
// exec failure.
func (f *Frontend) failCode(id uint64, msg string) []byte {
	if f.Srv.Crashed() {
		f.Ctr.Failover++
		return proto.EncodeError(id, proto.CodeFailover, "primary crashed")
	}
	f.Ctr.Failed++
	return proto.EncodeError(id, proto.CodeExecFailed, msg)
}

func (f *Frontend) execute(p *sim.Proc, ws *workerState, r request) {
	sess := ws.sess
	var reply []byte
	switch r.kind {
	case proto.KExec:
		ok, known := f.D.ExecOp(sess, r.req.Name, r.req.Arg)
		switch {
		case !known:
			f.Ctr.BadRequest++
			reply = proto.EncodeError(r.id, proto.CodeBadRequest, "unknown statement "+r.req.Name)
		case ok:
			f.Ctr.Served++
			if cf := f.cluster; cf != nil {
				// The server-side half of the acked-commit safety
				// checker's join, recorded before the reply is sent.
				cf.Acks = append(cf.Acks, Ack{Epoch: f.epoch, Pair: r.conn.Pair(), Req: r.id, LSN: sess.LastCommitLSN})
			}
			reply = proto.EncodeResult(r.id, proto.Result{Rows: 1})
		default:
			reply = f.failCode(r.id, "aborted")
		}
	case proto.KQuery:
		qsrv, qd, qsess := f.Srv, f.D, sess
		if r.degraded && f.cluster != nil {
			if tsrv, td := f.cluster.routeQuery(); tsrv != nil {
				// Shed the analytical read to a caught-up replica at
				// full resources rather than running degraded locally.
				f.Ctr.Routed++
				qsrv, qd, qsess = tsrv, td, ws.on(p, tsrv)
			}
		}
		q, known := qd.QueryOp(r.req.Name, r.req.Arg)
		if !known {
			f.Ctr.BadRequest++
			reply = proto.EncodeError(r.id, proto.CodeBadRequest, "unknown statement "+r.req.Name)
			break
		}
		var o engine.QueryOptions
		if r.degraded && qsrv == f.Srv {
			// The deadline governor's degraded posture, applied at
			// admission instead of mid-query: half DOP, quarter grant.
			f.Ctr.Degraded++
			if dop := f.Srv.EffectiveDop(0) / 2; dop > 0 {
				o.MaxDOP = dop
			}
			o.GrantPct = f.Srv.Cfg.GrantFrac / 4
		}
		res := qsess.Query(q, o)
		if res.Err != nil {
			reply = f.failCode(r.id, res.Err.Error())
		} else {
			f.Ctr.Served++
			reply = proto.EncodeResult(r.id, proto.Result{Rows: uint64(len(res.Rows))})
		}
	}
	// The connection may have died while the statement ran; the engine
	// work still happened, the reply is just undeliverable.
	if f.stopped {
		r.conn.Deliver(reply)
		return
	}
	r.conn.Send(p, reply)
}

// QueueDepth reports the current run-queue depth (for tests/telemetry).
func (f *Frontend) QueueDepth() int { return len(f.runq) }
