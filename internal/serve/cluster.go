package serve

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/net"
	"repro/internal/repl"
	"repro/internal/workload/asdb"
)

// Ack is one client-acknowledged exec recorded at the serving boundary:
// which front end acked it (epoch 0 = original primary, 1 = promoted
// standby), on which transport pair, for which request id, at which
// commit LSN. The chaos harness joins these against the client's own
// ack log and the surviving WAL.
type Ack struct {
	Epoch int
	Pair  uint64
	Req   uint64
	LSN   int64
}

// ClusterFrontend fronts a repl.Cluster instead of a single server: it
// serves the primary, sheds degraded analytical reads to caught-up
// replicas, folds replication health into admission posture, and — after
// repl.Failover promotes a standby — brings up a second front end on the
// promoted node so clients can re-dial and resume.
type ClusterFrontend struct {
	Cl   *repl.Cluster
	Cfg  Config
	Net  *net.Network
	FE   *Frontend // epoch-0 front end on the original primary
	PFE  *Frontend // epoch-1 front end on the promoted standby (after Promote)
	DSOf func(*engine.Database) *asdb.Dataset

	// Acks is the append-only server-side ack log across both epochs.
	Acks  []Ack
	Epoch int
}

// NewCluster builds the cluster front end. primaryDS is the primary's
// bound dataset; dsOf maps a standby's database image to its dataset
// view (the same schema bound to a different image).
func NewCluster(cl *repl.Cluster, primaryDS *asdb.Dataset, dsOf func(*engine.Database) *asdb.Dataset, cfg Config) *ClusterFrontend {
	cfg = cfg.withDefaults()
	nw := net.New(cl.Primary.Sim, net.Config{})
	cf := &ClusterFrontend{Cl: cl, Cfg: cfg, Net: nw, DSOf: dsOf}
	cf.FE = NewOn(nw, cl.Primary, primaryDS, cfg)
	cf.FE.cluster = cf
	return cf
}

// Start binds the primary's front end.
func (cf *ClusterFrontend) Start() error { return cf.FE.Start() }

// Endpoints is the failover-aware dial list for resilient clients: the
// primary's listen address, then the one the promoted standby's front
// end binds after failover.
func (cf *ClusterFrontend) Endpoints() []string {
	return []string{cf.Cfg.Addr, cf.Cfg.Addr + "1"}
}

// Frontend returns the currently-serving front end.
func (cf *ClusterFrontend) Frontend() *Frontend {
	if cf.Epoch > 0 {
		return cf.PFE
	}
	return cf.FE
}

// unhealthy reports a degraded replication plane (repl.Cluster.Unhealthy).
// The front end halves its degrade threshold while true. After promotion
// the cluster is a single node again, with no replication plane to be
// unhealthy.
func (cf *ClusterFrontend) unhealthy() bool {
	return cf.Epoch == 0 && cf.Cl.Unhealthy()
}

// routeQuery offers a node for a degraded analytical read: the most
// caught-up standby when it is inside the staleness bound, else nil (run
// the query locally). After promotion the cluster is a single node again
// — no routing.
func (cf *ClusterFrontend) routeQuery() (*engine.Server, *asdb.Dataset) {
	if cf.Epoch > 0 {
		return nil, nil
	}
	i := cf.Cl.RouteRead()
	if i < 0 {
		return nil, nil
	}
	s := cf.Cl.Standbys[i]
	return s.Srv, cf.DSOf(s.DB)
}

// Promote brings up a front end on the standby repl.Failover promoted,
// listening at Endpoints()[1] on the same network segment, and advances
// the ack epoch. Call after Cluster.Failover succeeds.
func (cf *ClusterFrontend) Promote() error {
	s := cf.Cl.PromotedStandby()
	if s == nil {
		return errors.New("serve: no promoted standby (run repl.Failover first)")
	}
	cfg := cf.Cfg
	cfg.Addr = cf.Endpoints()[1]
	fe := NewOn(cf.Net, s.Srv, cf.DSOf(s.DB), cfg)
	fe.cluster, fe.epoch = cf, 1
	cf.PFE = fe
	cf.Epoch = 1
	return fe.Start()
}

// Stop stops whichever front ends were started.
func (cf *ClusterFrontend) Stop() {
	cf.FE.Stop()
	if cf.PFE != nil {
		cf.PFE.Stop()
	}
}
