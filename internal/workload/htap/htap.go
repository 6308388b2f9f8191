// Package htap implements the paper's hybrid workload (Section 2.3): the
// TPC-E transactional component run by 99 users concurrently with one
// analytical user cycling through four analytical queries against an
// updatable nonclustered columnstore index on the trade table.
package htap

import (
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload/tpce"
)

// Config mirrors the TPC-E scale factors.
type Config struct {
	Customers               int
	ActualTradesPerCustomer int
	Seed                    int64
}

// Build generates the TPC-E dataset with the columnstore index attached.
func Build(cfg Config) *tpce.Dataset {
	return tpce.Build(tpce.Config{
		Customers:               cfg.Customers,
		ActualTradesPerCustomer: cfg.ActualTradesPerCustomer,
		Seed:                    cfg.Seed,
		WithCSI:                 true,
	})
}

// Stats reports both components.
type Stats struct {
	OLTP      tpce.Stats
	DSSPasses int // completed analytical queries
}

// Run drives the hybrid workload: oltpUsers transactional terminals plus
// one analytical session running the four queries round-robin, until the
// given simulated time. The caller advances the clock and computes TPS /
// QPH from the engine counters.
func Run(srv *engine.Server, d *tpce.Dataset, oltpUsers int, until sim.Time, st *Stats) {
	tpce.RunUsers(srv, d, oltpUsers, until, &st.OLTP)
	srv.Sim.Spawn("htap-analyst", func(p *sim.Proc) {
		sess := srv.Open(p)
		defer sess.Close()
		g := srv.Sim.RNG().Fork()
		for qn := 0; !srv.Stopped() && p.Now() < until; qn++ {
			res := sess.Query(d.AnalyticalQuery(qn, g), engine.QueryOptions{G: g})
			if res.Err == nil {
				st.DSSPasses++
			}
		}
	})
}
