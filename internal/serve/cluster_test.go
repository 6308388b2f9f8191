package serve

import (
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
)

func bootCluster(t *testing.T, rcfg repl.Config) (*engine.Server, *repl.Cluster, *ClusterFrontend) {
	t.Helper()
	ecfg := engine.DefaultConfig()
	ecfg.Seed = 1
	srv := engine.NewServer(ecfg)
	acfg := asdb.Config{SF: 4, ActualRowsPerSF: 4, Seed: 1}
	d := asdb.Build(acfg)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.ArmRecovery(engine.RecoveryOptions{MaxFlushBytes: 4 << 10})

	byDB := make(map[*engine.Database]*asdb.Dataset)
	rcfg.NewImage = func() *engine.Database {
		dd := asdb.Build(acfg)
		byDB[dd.DB] = dd
		return dd.DB
	}
	cl := repl.New(srv, rcfg)
	cf := NewCluster(cl, d, func(db *engine.Database) *asdb.Dataset { return byDB[db] }, Config{})
	srv.Start()
	cl.Start()
	if err := cf.Start(); err != nil {
		t.Fatal(err)
	}
	return srv, cl, cf
}

// TestClusterFailoverServesAtPromotedAddr drives the full failover arc
// at the serving boundary: acked writes land in the epoch-0 ack log with
// their commit LSNs, the primary crash yields typed CodeFailover
// refusals, and after Failover+Promote a client reaches the promoted
// standby at its failover endpoint and its acks carry epoch 1.
func TestClusterFailoverServesAtPromotedAddr(t *testing.T) {
	srv, cl, cf := bootCluster(t, repl.Config{Mode: repl.ModeQuorum, Quorum: 1, Replicas: 2})
	var preOK, postOK client.Reply
	var deadCode proto.Code
	srv.Sim.Spawn("driver", func(p *sim.Proc) {
		c, err := client.Dial(p, cf.Net, cf.Cfg.Addr, "t")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if preOK, err = c.Exec(p, "asdb.Update", 11); err != nil {
			t.Errorf("pre-crash exec: %v", err)
		}
		srv.Crash()
		// The epoch-0 front end is stopping: a fresh request must be
		// refused with the typed failover code, not hang or drop.
		if rep, err := c.Exec(p, "asdb.Update", 12); err == nil {
			deadCode = rep.Code
		} else {
			deadCode = proto.CodeFailover // conn torn down is acceptable too
		}
		c.Abandon()
		frep := cl.Failover(p)
		if verr := cl.VerifyFailover(frep); verr != nil {
			t.Errorf("verify failover: %v", verr)
		}
		if perr := cf.Promote(); perr != nil {
			t.Errorf("promote: %v", perr)
			return
		}
		pc, err := client.Dial(p, cf.Net, cf.Endpoints()[1], "t")
		if err != nil {
			t.Errorf("dial promoted: %v", err)
			return
		}
		if postOK, err = pc.Exec(p, "asdb.Update", 13); err != nil {
			t.Errorf("post-promote exec: %v", err)
		}
		pc.Close(p)
	})
	srv.Sim.Run(sim.Time(120 * sim.Second))
	cf.Stop()
	cl.Shutdown()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(10*sim.Second))

	if !preOK.OK || !postOK.OK {
		t.Fatalf("pre=%+v post=%+v", preOK, postOK)
	}
	if deadCode != proto.CodeFailover {
		t.Fatalf("crashed-primary refusal code = %v, want failover", deadCode)
	}
	if cf.Epoch != 1 || cf.Frontend() != cf.PFE {
		t.Fatalf("epoch %d: promoted front end not serving", cf.Epoch)
	}
	var e0, e1 int
	for _, a := range cf.Acks {
		switch a.Epoch {
		case 0:
			e0++
		case 1:
			e1++
		}
		if a.LSN == 0 {
			t.Fatalf("acked exec recorded with no commit LSN: %+v", a)
		}
	}
	if e0 != 1 || e1 != 1 {
		t.Fatalf("ack log epochs: %d epoch-0, %d epoch-1, want 1/1 (%+v)", e0, e1, cf.Acks)
	}
}

// TestClusterRoutesDegradedReadsToReplica pins read shedding: analytical
// reads admitted past DegradeDepth are routed to a caught-up standby at
// full resources instead of running degraded on the primary.
func TestClusterRoutesDegradedReadsToReplica(t *testing.T) {
	srv, cl, cf := bootCluster(t, repl.Config{Mode: repl.ModeAsync, Replicas: 1})
	const dashboards = Workers + DegradeDepth + 6
	ok := 0
	for i := 0; i < dashboards; i++ {
		srv.Sim.Spawn("dash", func(p *sim.Proc) {
			c, err := client.Dial(p, cf.Net, cf.Cfg.Addr, "dash")
			if err != nil {
				return
			}
			if rep, err := c.Query(p, "asdb.SumBig", 2); err == nil && rep.OK {
				ok++
			}
			c.Close(p)
		})
	}
	srv.Sim.Run(sim.Time(300 * sim.Second))
	if ok != dashboards {
		t.Fatalf("ok = %d of %d, ctr=%+v", ok, dashboards, cf.FE.Ctr)
	}
	if cf.FE.Ctr.Routed == 0 {
		t.Fatalf("no degraded reads routed to the replica: ctr=%+v", cf.FE.Ctr)
	}
	srv.Stop()
	cl.Shutdown()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
}

// TestReplUnhealthyTightensAdmission pins the posture coupling: with the
// replication link down, the degrade threshold halves, so a query depth
// that passes clean admission when healthy runs degraded when not.
func TestReplUnhealthyTightensAdmission(t *testing.T) {
	run := func(linkDown bool) int64 {
		srv, cl, cf := bootCluster(t, repl.Config{Mode: repl.ModeAsync, Replicas: 1})
		if linkDown {
			cl.SetLinkDown(true)
		}
		for i := 0; i < Workers+DegradeDepth*3/4; i++ {
			srv.Sim.Spawn("dash", func(p *sim.Proc) {
				c, err := client.Dial(p, cf.Net, cf.Cfg.Addr, "dash")
				if err != nil {
					return
				}
				c.Query(p, "asdb.SumBig", 1)
				c.Close(p)
			})
		}
		srv.Sim.Run(sim.Time(300 * sim.Second))
		deg := cf.FE.Ctr.Degraded + cf.FE.Ctr.Routed
		cl.SetLinkDown(false)
		srv.Stop()
		cl.Shutdown()
		srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))
		return deg
	}
	healthy, unhealthy := run(false), run(true)
	if healthy != 0 {
		t.Fatalf("healthy cluster degraded %d queries under DegradeDepth", healthy)
	}
	if unhealthy == 0 {
		t.Fatal("link-down cluster never tightened admission posture")
	}
}

// TestPromotedFrontendIgnoresReplHealth pins the promoted front end's
// posture: after failover the cluster is a single node, so a replication
// link left down neither halves its degrade threshold nor routes its
// reads — the query depth that passes clean admission on a healthy
// cluster passes clean on the promoted node too.
func TestPromotedFrontendIgnoresReplHealth(t *testing.T) {
	srv, cl, cf := bootCluster(t, repl.Config{Mode: repl.ModeAsync, Replicas: 1})
	const queries = Workers + DegradeDepth*3/4
	ok := 0
	srv.Sim.Spawn("failover", func(p *sim.Proc) {
		srv.Crash()
		if err := cl.VerifyFailover(cl.Failover(p)); err != nil {
			t.Errorf("verify failover: %v", err)
		}
		cl.SetLinkDown(true)
		if err := cf.Promote(); err != nil {
			t.Errorf("promote: %v", err)
			return
		}
		for i := 0; i < queries; i++ {
			srv.Sim.Spawn("dash", func(p *sim.Proc) {
				c, err := client.Dial(p, cf.Net, cf.Endpoints()[1], "dash")
				if err != nil {
					return
				}
				if rep, err := c.Query(p, "asdb.SumBig", 1); err == nil && rep.OK {
					ok++
				}
				c.Close(p)
			})
		}
	})
	srv.Sim.Run(sim.Time(300 * sim.Second))
	cf.Stop()
	cl.Shutdown()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second))

	if ok != queries {
		t.Fatalf("ok = %d of %d, ctr=%+v", ok, queries, cf.PFE.Ctr)
	}
	if cf.PFE.Ctr.Degraded != 0 || cf.PFE.Ctr.Routed != 0 {
		t.Fatalf("promoted front end took replication health into account: ctr=%+v", cf.PFE.Ctr)
	}
}
