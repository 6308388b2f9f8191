package client

import (
	"errors"
	"testing"

	"repro/internal/net"
	"repro/internal/proto"
	"repro/internal/sim"
)

// fakeSrv is a scripted protocol server: it completes handshakes and
// answers each exec/query according to per-test hooks, counting how many
// statements it actually "applied" — the ground truth the no-double-
// effect assertions check against.
type fakeSrv struct {
	execSeen  int // exec frames received
	applied   int // execs acknowledged OK (the effect count)
	querySeen int

	// onExec scripts the n-th exec frame (1-based): reply OK, reply the
	// given error code, or hang up without replying (outcome ambiguity).
	onExec func(n int) (ok bool, code proto.Code, hangUp bool)
	// onQuery scripts the n-th query frame: delay before the OK reply.
	onQuery func(n int) sim.Duration
	// execDelay stalls every exec reply (slow-write scenarios).
	execDelay sim.Duration
}

func (fs *fakeSrv) listen(t *testing.T, sm *sim.Sim, nw *net.Network, addr string) {
	t.Helper()
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	sm.Spawn("fake-accept", func(p *sim.Proc) {
		for {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			sm.Spawn("fake-conn", func(cp *sim.Proc) { fs.serveConn(cp, c) })
		}
	})
}

func (fs *fakeSrv) serveConn(p *sim.Proc, c *net.Conn) {
	defer c.Close()
	for {
		buf, err := c.Recv(p)
		if err != nil {
			return
		}
		fr, _, derr := proto.Decode(buf)
		if derr != nil {
			return
		}
		switch fr.Kind {
		case proto.KHello:
			if c.Send(p, proto.EncodeHelloAck()) != nil {
				return
			}
		case proto.KExec:
			fs.execSeen++
			ok, code, hangUp := true, proto.Code(0), false
			if fs.onExec != nil {
				ok, code, hangUp = fs.onExec(fs.execSeen)
			}
			if hangUp {
				return
			}
			if fs.execDelay > 0 {
				p.Sleep(fs.execDelay)
			}
			if ok {
				fs.applied++
				if c.Send(p, proto.EncodeResult(fr.ID, proto.Result{Rows: 1})) != nil {
					return
				}
			} else if c.Send(p, proto.EncodeError(fr.ID, code, code.String())) != nil {
				return
			}
		case proto.KQuery:
			fs.querySeen++
			if fs.onQuery != nil {
				if d := fs.onQuery(fs.querySeen); d > 0 {
					p.Sleep(d)
				}
			}
			if c.Send(p, proto.EncodeResult(fr.ID, proto.Result{Rows: 10})) != nil {
				return
			}
		case proto.KGoodbye:
			return
		}
	}
}

func TestExecRetriesShedWritesExactlyOnceEffect(t *testing.T) {
	sm := sim.New(1)
	nw := net.New(sm, net.Config{})
	fs := &fakeSrv{onExec: func(n int) (bool, proto.Code, bool) {
		// Shed twice (retry-safe: guaranteed not executed), then accept.
		if n <= 2 {
			return false, proto.CodeOverloaded, false
		}
		return true, proto.Code(0), false
	}}
	fs.listen(t, sm, nw, "db")
	var m Metrics
	var out Outcome
	sm.Spawn("client", func(p *sim.Proc) {
		r := NewResilient(nw, []string{"db"}, &m, sim.NewRNG(7), "t")
		defer r.Close()
		_, out = r.Exec(p, "asdb.Update", 1)
	})
	sm.Run(sim.Time(30 * sim.Second))
	if out != OutcomeAcked {
		t.Fatalf("outcome %v, want acked", out)
	}
	if m.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Retries)
	}
	if fs.execSeen != 3 || fs.applied != 1 {
		t.Fatalf("server saw %d execs, applied %d; want 3 seen, exactly 1 applied", fs.execSeen, fs.applied)
	}
}

func TestExecAmbiguousIsNeverResent(t *testing.T) {
	sm := sim.New(1)
	nw := net.New(sm, net.Config{})
	fs := &fakeSrv{onExec: func(n int) (bool, proto.Code, bool) {
		return false, proto.Code(0), true // hang up mid-request, every time
	}}
	fs.listen(t, sm, nw, "db")
	var m Metrics
	var out Outcome
	sm.Spawn("client", func(p *sim.Proc) {
		r := NewResilient(nw, []string{"db"}, &m, sim.NewRNG(7), "t")
		defer r.Close()
		_, out = r.Exec(p, "asdb.Update", 1)
	})
	sm.Run(sim.Time(30 * sim.Second))
	if out != OutcomeUnknown {
		t.Fatalf("outcome %v, want unknown", out)
	}
	// The transport died after the frame crossed: the write may have
	// committed, so it must surface as ambiguous after ONE wire attempt.
	if fs.execSeen != 1 {
		t.Fatalf("server saw %d exec frames for one ambiguous write, want 1", fs.execSeen)
	}
	if m.Ambiguous != 1 || m.Retries != 0 {
		t.Fatalf("Ambiguous=%d Retries=%d, want 1 and 0", m.Ambiguous, m.Retries)
	}
}

func TestWritesNeverHedge(t *testing.T) {
	sm := sim.New(1)
	nw := net.New(sm, net.Config{})
	// The exec reply is far slower than hedgeAfter: a hedging write would
	// show up as a second exec frame at the server.
	fs := &fakeSrv{execDelay: 2 * hedgeAfter}
	fs.listen(t, sm, nw, "db")
	var m Metrics
	var out Outcome
	sm.Spawn("client", func(p *sim.Proc) {
		r := NewResilient(nw, []string{"db"}, &m, sim.NewRNG(7), "t")
		defer r.Close()
		_, out = r.Exec(p, "asdb.Update", 1)
	})
	sm.Run(sim.Time(30 * sim.Second))
	if out != OutcomeAcked {
		t.Fatalf("outcome %v, want acked", out)
	}
	if m.HedgesSent != 0 {
		t.Fatalf("a write hedged (HedgesSent=%d): hedging is reads-only", m.HedgesSent)
	}
	if fs.execSeen != 1 || fs.applied != 1 {
		t.Fatalf("server saw %d execs, applied %d; want exactly 1/1", fs.execSeen, fs.applied)
	}
}

func TestHedgedReadWinsWithoutDoubleCountingAnswers(t *testing.T) {
	sm := sim.New(1)
	nw := net.New(sm, net.Config{})
	fs := &fakeSrv{onQuery: func(n int) sim.Duration {
		if n == 1 {
			return 2 * hedgeAfter // first leg is slow
		}
		return 0 // hedge leg answers immediately
	}}
	fs.listen(t, sm, nw, "db")
	var m Metrics
	var rep Reply
	var qerr error
	sm.Spawn("client", func(p *sim.Proc) {
		r := NewResilient(nw, []string{"db"}, &m, sim.NewRNG(7), "t")
		defer r.Close()
		rep, qerr = r.Query(p, "asdb.SumBig", 2)
	})
	sm.Run(sim.Time(30 * sim.Second))
	if qerr != nil || !rep.OK {
		t.Fatalf("hedged query failed: %v %+v", qerr, rep)
	}
	if m.HedgesSent != 1 || m.HedgesWon != 1 {
		t.Fatalf("HedgesSent=%d HedgesWon=%d, want 1/1", m.HedgesSent, m.HedgesWon)
	}
	// Exactly one logical answer surfaced even though two legs ran.
	if fs.querySeen != 2 {
		t.Fatalf("server saw %d queries, want 2 (primary + hedge)", fs.querySeen)
	}
	if m.Retries != 0 {
		t.Fatalf("Retries = %d: a won hedge is not a retry", m.Retries)
	}
}

func TestFailoverReplyRotatesToPromotedEndpoint(t *testing.T) {
	sm := sim.New(1)
	nw := net.New(sm, net.Config{})
	dying := &fakeSrv{onExec: func(n int) (bool, proto.Code, bool) {
		return false, proto.CodeFailover, false
	}}
	dying.listen(t, sm, nw, "db")
	promoted := &fakeSrv{}
	promoted.listen(t, sm, nw, "db1")
	var m Metrics
	var out Outcome
	var final string
	sm.Spawn("client", func(p *sim.Proc) {
		r := NewResilient(nw, []string{"db", "db1"}, &m, sim.NewRNG(7), "t")
		defer r.Close()
		_, out = r.Exec(p, "asdb.Update", 1)
		final = r.Endpoint()
	})
	sm.Run(sim.Time(30 * sim.Second))
	if out != OutcomeAcked {
		t.Fatalf("outcome %v, want acked after failover pursuit", out)
	}
	if final != "db1" || m.Rotations == 0 {
		t.Fatalf("endpoint %q rotations %d: client did not pursue the promoted address", final, m.Rotations)
	}
	if dying.applied != 0 || promoted.applied != 1 {
		t.Fatalf("applied dying=%d promoted=%d, want 0/1", dying.applied, promoted.applied)
	}
}

func TestBreakerOpensFailsFastThenRecovers(t *testing.T) {
	sm := sim.New(1)
	// No listener at all: every dial fails and feeds the breaker.
	nw := net.New(sm, net.Config{})
	var m Metrics
	fs := &fakeSrv{}
	var before error
	var after Reply
	var aerr error
	sm.Spawn("client", func(p *sim.Proc) {
		r := NewResilient(nw, []string{"db"}, &m, sim.NewRNG(7), "t")
		defer r.Close()
		// One query's attempts stay under breakerThreshold; the second's
		// dial failures open the breaker.
		r.Query(p, "asdb.SumBig", 0)
		_, before = r.Query(p, "asdb.SumBig", 0)
		if m.BreakerOpen == 0 {
			t.Error("breaker never opened across repeated dial failures")
		}
		// Server comes up; after the cooldown the half-open probe succeeds.
		fs.listen(t, sm, nw, "db")
		p.Sleep(2 * breakerCooldown)
		after, aerr = r.Query(p, "asdb.SumBig", 0)
	})
	sm.Run(sim.Time(60 * sim.Second))
	if before == nil {
		t.Fatal("query with no server up unexpectedly succeeded")
	}
	if !errors.Is(before, net.ErrNoListener) && !errors.Is(before, ErrBreakerOpen) {
		t.Fatalf("down-phase error: %v", before)
	}
	if aerr != nil || !after.OK {
		t.Fatalf("post-recovery query: %v %+v", aerr, after)
	}
	if m.BreakerShut != 1 {
		t.Fatalf("BreakerShut = %d, want 1 recovery transition", m.BreakerShut)
	}
}
