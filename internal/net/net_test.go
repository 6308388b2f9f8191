package net

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestDialSendRecvRoundTrip(t *testing.T) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	l, err := nw.Listen("db")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	sm.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		f, err := c.Recv(p)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got = f
		if err := c.Send(p, []byte("pong")); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	var reply []byte
	var elapsed sim.Time
	sm.Spawn("client", func(p *sim.Proc) {
		c, err := nw.Dial(p, "db")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		t0 := p.Now()
		if err := c.Send(p, []byte("ping")); err != nil {
			t.Errorf("send: %v", err)
		}
		reply, err = c.Recv(p)
		if err != nil {
			t.Errorf("recv reply: %v", err)
		}
		elapsed = p.Now() - t0
		c.Close()
	})
	sm.Run(sim.Time(sim.Second))
	if string(got) != "ping" || string(reply) != "pong" {
		t.Fatalf("got %q, reply %q", got, reply)
	}
	// The request/reply pair crosses the link twice: at least two one-way
	// latencies plus transmission time must have elapsed in simulated time.
	if elapsed < sim.Time(2*100*sim.Microsecond) {
		t.Fatalf("round trip took %v, want >= 200µs", elapsed)
	}
	if l.Accepted != 1 {
		t.Fatalf("accepted = %d", l.Accepted)
	}
}

func TestDialNoListener(t *testing.T) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	sm.Spawn("client", func(p *sim.Proc) {
		if _, err := nw.Dial(p, "nowhere"); !errors.Is(err, ErrNoListener) {
			t.Errorf("err = %v, want ErrNoListener", err)
		}
	})
	sm.Run(sim.Time(sim.Second))
	if nw.NoListener != 1 {
		t.Fatalf("NoListener = %d", nw.NoListener)
	}
}

func TestDialRefusedWhenBacklogFull(t *testing.T) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	l, _ := nw.Listen("db")
	refused := 0
	for i := 0; i < acceptBacklog+2; i++ {
		sm.Spawn("client", func(p *sim.Proc) {
			// Nobody accepts, so dials beyond the backlog bound are refused.
			if _, err := nw.Dial(p, "db"); errors.Is(err, ErrBacklogFull) {
				refused++
			}
		})
	}
	sm.Run(sim.Time(sim.Second))
	if refused != 2 || nw.Refused != 2 || l.Refused != 2 {
		t.Fatalf("refused = %d, nw.Refused = %d, l.Refused = %d", refused, nw.Refused, l.Refused)
	}
	if l.Depth() != acceptBacklog {
		t.Fatalf("backlog depth = %d", l.Depth())
	}
}

func TestListenerCloseWakesAcceptor(t *testing.T) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	l, _ := nw.Listen("db")
	var acceptErr error
	sm.Spawn("server", func(p *sim.Proc) {
		_, acceptErr = l.Accept(p)
	})
	sm.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		l.Close()
	})
	sm.Run(sim.Time(sim.Second))
	if !errors.Is(acceptErr, ErrListenerClosed) {
		t.Fatalf("accept err = %v, want ErrListenerClosed", acceptErr)
	}
	// The address is released on close.
	if _, err := nw.Listen("db"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestCloseWakesReceiverAfterBufferedFrames(t *testing.T) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	l, _ := nw.Listen("db")
	var frames [][]byte
	var finalErr error
	sm.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		for {
			f, err := c.Recv(p)
			if err != nil {
				finalErr = err
				return
			}
			frames = append(frames, f)
		}
	})
	sm.Spawn("client", func(p *sim.Proc) {
		c, _ := nw.Dial(p, "db")
		c.Send(p, []byte("a"))
		c.Send(p, []byte("b"))
		c.Close()
	})
	sm.Run(sim.Time(sim.Second))
	if len(frames) != 2 || !errors.Is(finalErr, ErrClosed) {
		t.Fatalf("frames = %d, err = %v", len(frames), finalErr)
	}
}

// TestDeliverIsInstant pins the control-plane property the serving layer
// leans on: Deliver charges neither bandwidth nor latency, so it can be
// invoked from outside any proc (e.g. a stop hook) and the receiver sees
// the frame at the same simulated instant.
func TestDeliverIsInstant(t *testing.T) {
	sm := sim.New(1)
	nw := New(sm, Config{})
	l, _ := nw.Listen("db")
	var at sim.Time
	var server *Conn
	sm.Spawn("server", func(p *sim.Proc) {
		server, _ = l.Accept(p)
	})
	sm.Spawn("client", func(p *sim.Proc) {
		c, _ := nw.Dial(p, "db")
		f, err := c.Recv(p)
		if err != nil || string(f) != "bye" {
			t.Errorf("recv: %q %v", f, err)
		}
		at = p.Now()
	})
	sm.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		server.Deliver([]byte("bye")) // no link charge, no latency
	})
	sm.Run(sim.Time(sim.Second))
	if at != sim.Time(10*sim.Millisecond) {
		t.Fatalf("delivered at %v, want exactly 10ms", at)
	}
}
