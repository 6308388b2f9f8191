package serve

import (
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
)

func boot(t *testing.T) (*engine.Server, *Frontend) {
	t.Helper()
	ecfg := engine.DefaultConfig()
	ecfg.Seed = 1
	srv := engine.NewServer(ecfg)
	d := asdb.Build(asdb.Config{SF: 4, ActualRowsPerSF: 4, Seed: 1})
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	f := New(srv, d, Config{})
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return srv, f
}

func TestServeRoundTrip(t *testing.T) {
	srv, f := boot(t)
	var exec, query client.Reply
	srv.Sim.Spawn("client", func(p *sim.Proc) {
		cl, err := client.Dial(p, f.Net, "db", "test")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if exec, err = cl.Exec(p, "asdb.PointRead", 17); err != nil {
			t.Errorf("exec: %v", err)
		}
		if query, err = cl.Query(p, "asdb.SumBig", 3); err != nil {
			t.Errorf("query: %v", err)
		}
		cl.Close(p)
	})
	srv.Sim.Run(sim.Time(60 * sim.Second))
	if !exec.OK || exec.Rows != 1 {
		t.Fatalf("exec reply = %+v", exec)
	}
	if !query.OK || query.Rows == 0 {
		t.Fatalf("query reply = %+v", query)
	}
	if f.Ctr.Served != 2 || f.Ctr.Accepted != 1 {
		t.Fatalf("counters = %+v", f.Ctr)
	}
	srv.Stop()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
}

func TestUnknownStatementRejected(t *testing.T) {
	srv, f := boot(t)
	var rep client.Reply
	srv.Sim.Spawn("client", func(p *sim.Proc) {
		cl, err := client.Dial(p, f.Net, "db", "test")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rep, err = cl.Exec(p, "asdb.NoSuchOp", 0)
		if err != nil {
			t.Errorf("call: %v", err)
		}
		cl.Close(p)
	})
	srv.Sim.Run(sim.Time(60 * sim.Second))
	if rep.OK || rep.Code != proto.CodeBadRequest {
		t.Fatalf("reply = %+v", rep)
	}
	srv.Stop()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
}

// TestOverloadShedsPastRunQueue pins admission control: a burst of
// concurrent requests past what the workers and the run queue hold is
// shed with CodeOverloaded instead of queueing without bound.
func TestOverloadShedsPastRunQueue(t *testing.T) {
	srv, f := boot(t)
	shed, served := 0, 0
	for i := 0; i < Workers+RunQueue+16; i++ {
		srv.Sim.Spawn("client", func(p *sim.Proc) {
			cl, err := client.Dial(p, f.Net, "db", "burst")
			if err != nil {
				return
			}
			rep, err := cl.Exec(p, "asdb.Update", uint64(p.Now()))
			if err == nil {
				if rep.OK {
					served++
				} else if rep.Code == proto.CodeOverloaded {
					shed++
				}
			}
			cl.Close(p)
		})
	}
	srv.Sim.Run(sim.Time(120 * sim.Second))
	if shed == 0 {
		t.Fatalf("no requests shed: served=%d shed=%d ctr=%+v", served, shed, f.Ctr)
	}
	if served == 0 {
		t.Fatalf("no requests served under burst: ctr=%+v", f.Ctr)
	}
	if int(f.Ctr.Shed) != shed {
		t.Fatalf("Ctr.Shed = %d, clients saw %d", f.Ctr.Shed, shed)
	}
	srv.Stop()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(120*sim.Second))
}

// TestDegradeBeforeShed pins the middle admission tier: queries admitted
// past DegradeDepth run degraded (half DOP, quarter grant) but still
// succeed.
func TestDegradeBeforeShed(t *testing.T) {
	srv, f := boot(t)
	const dashboards = Workers + DegradeDepth + 6
	ok := 0
	for i := 0; i < dashboards; i++ {
		srv.Sim.Spawn("client", func(p *sim.Proc) {
			cl, err := client.Dial(p, f.Net, "db", "dash")
			if err != nil {
				return
			}
			rep, err := cl.Query(p, "asdb.SumBig", 2)
			if err == nil && rep.OK {
				ok++
			}
			cl.Close(p)
		})
	}
	srv.Sim.Run(sim.Time(300 * sim.Second))
	if ok != dashboards {
		t.Fatalf("ok = %d of %d, ctr=%+v", ok, dashboards, f.Ctr)
	}
	if f.Ctr.Degraded == 0 {
		t.Fatalf("no degraded queries: ctr=%+v", f.Ctr)
	}
	srv.Stop()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(120*sim.Second))
}

// TestStopUnderStorm is the regression for Server.Stop during an
// in-flight admission wait: requests sitting in the run queue when the
// server stops must be answered with CodeShutdown (not abandoned), every
// client loop must terminate, and the queue must drain to zero.
func TestStopUnderStorm(t *testing.T) {
	srv, f := boot(t)
	const clients = 24
	done := 0
	sawShutdown := 0
	for i := 0; i < clients; i++ {
		srv.Sim.Spawn("client", func(p *sim.Proc) {
			defer func() { done++ }()
			cl, err := client.Dial(p, f.Net, "db", "storm")
			if err != nil {
				return
			}
			defer cl.Close(p)
			for seq := uint64(0); ; seq++ {
				rep, err := cl.Exec(p, "asdb.PointRead", seq)
				if err != nil {
					return // connection torn down by Stop
				}
				if !rep.OK {
					if rep.Code == proto.CodeShutdown {
						sawShutdown++
					}
					return
				}
			}
		})
	}
	// Let the storm build a queue, then stop the server harness-style:
	// from outside any proc, mid-wait.
	srv.Sim.Run(sim.Time(2 * sim.Second))
	if f.QueueDepth() == 0 {
		t.Fatalf("storm never built a run queue; widen it")
	}
	queued := f.QueueDepth()
	srv.Stop()
	if f.QueueDepth() != 0 {
		t.Fatalf("run queue not drained by Stop: depth=%d", f.QueueDepth())
	}
	if int(f.Ctr.Shutdown) < queued {
		t.Fatalf("Shutdown replies %d < %d queued at stop", f.Ctr.Shutdown, queued)
	}
	// Drain: every client proc must observe shutdown and exit.
	srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
	if done != clients {
		t.Fatalf("only %d of %d clients terminated after Stop", done, clients)
	}
	if sawShutdown == 0 {
		t.Fatalf("no client observed a CodeShutdown reply (queued=%d, ctr=%+v)", queued, f.Ctr)
	}
}

// TestStopIsIdempotent guards the double-stop path (engine Stop hook plus
// an explicit front-end Stop).
func TestStopIsIdempotent(t *testing.T) {
	srv, f := boot(t)
	srv.Sim.Run(sim.Time(sim.Second))
	f.Stop()
	srv.Stop() // runs f.Stop again via the stop hook
	f.Stop()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
}

// TestWarmExecRoundTripAllocations pins the serving wire path's steady
// state: on an established connection, an Exec round trip allocates the
// request frame and the reply frame. DecodeRequest resolves the statement
// name against the served catalogue instead of copying it, no queue on
// the way regrows and no request is boxed.
func TestWarmExecRoundTripAllocations(t *testing.T) {
	srv, f := boot(t)
	sm := srv.Sim
	var kick sim.WaitQueue
	stop := false
	sm.Spawn("caller", func(p *sim.Proc) {
		cl, err := client.Dial(p, f.Net, "db", "allocs")
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close(p)
		sm.Halt()
		for key := uint64(0); ; key++ {
			kick.Wait(p)
			if stop {
				return
			}
			if rep, err := cl.Exec(p, "asdb.PointRead", key*7919); err != nil || !rep.OK {
				t.Errorf("exec: reply %+v, err %v", rep, err)
			}
			sm.Halt()
		}
	})
	sm.Run(sim.Forever) // boot and dial; the caller parks on kick
	roundTrip := func() {
		kick.WakeOne(sm)
		sm.Run(sim.Forever)
	}
	roundTrip() // the connection's first request
	if n := testing.AllocsPerRun(200, roundTrip); n > 2 {
		t.Errorf("%v allocations per warm Exec round trip, want at most 2", n)
	}
	stop = true
	kick.WakeOne(sm)
	sm.Run(sm.Now() + sim.Time(sim.Second))
	srv.Stop()
	sm.Run(sm.Now() + sim.Time(60*sim.Second))
}

// TestStopAnswersEveryQueuedRequest pins Stop's drain of the run queue:
// each request still queued when the server stops gets a CodeShutdown
// reply carrying its own id, and nothing else does.
func TestStopAnswersEveryQueuedRequest(t *testing.T) {
	srv, f := boot(t)
	sm := srv.Sim
	const clients = Workers + 8
	type outcome struct {
		pair uint64
		rep  client.Reply
		err  error
	}
	var out [clients]outcome
	for i := range out {
		sm.Spawn("client", func(p *sim.Proc) {
			cl, err := client.Dial(p, f.Net, "db", "queued")
			if err != nil {
				out[i].err = err
				return
			}
			out[i].pair = cl.Pair()
			out[i].rep, out[i].err = cl.Exec(p, "asdb.Update", uint64(i))
			cl.Close(p)
		})
	}
	for f.QueueDepth() < 4 && sm.Now() < sim.Time(sim.Second) {
		sm.Run(sm.Now() + sim.Time(10*sim.Microsecond))
	}
	queued := make(map[uint64]bool)
	for _, r := range f.runq {
		queued[r.conn.Pair()] = true
	}
	if len(queued) < 4 {
		t.Fatalf("only %d requests queued before Stop", len(queued))
	}
	srv.Stop()
	sm.Run(sm.Now() + sim.Time(60*sim.Second))
	if int(f.Ctr.Shutdown) != len(queued) {
		t.Errorf("%d CodeShutdown replies, %d requests queued at Stop", f.Ctr.Shutdown, len(queued))
	}
	for i, o := range out {
		gotShutdown := o.err == nil && o.rep.Code == proto.CodeShutdown
		if gotShutdown != queued[o.pair] {
			t.Errorf("client %d (queued %v): reply %+v, err %v", i, queued[o.pair], o.rep, o.err)
		}
	}
}
