package tpch

import (
	"repro/internal/engine"
	"repro/internal/sim"
)

// StreamStats reports one throughput run.
type StreamStats struct {
	QueriesDone int
	Elapsed     sim.Duration
}

// RunStreams drives `streams` concurrent query streams, each running the
// 22 queries in an independent random order repeatedly, until the
// simulation reaches `until`. Call after srv.Start; the caller advances
// the simulation clock.
func RunStreams(srv *engine.Server, d *Dataset, streams int, until sim.Time, done *StreamStats) {
	for i := 0; i < streams; i++ {
		srv.Sim.Spawn("tpch-stream", func(p *sim.Proc) {
			sess := srv.Open(p)
			defer sess.Close()
			g := srv.Sim.RNG().Fork()
			for !srv.Stopped() {
				for _, qi := range g.Perm(NumQueries) {
					if srv.Stopped() || p.Now() >= until {
						return
					}
					// Passing g arms the session's bounded retry with
					// backoff for deadline/IO failures; shutdown
					// cancellation is terminal.
					res := sess.Query(d.Query(qi+1, g), engine.QueryOptions{G: g})
					if res.Err == nil {
						done.QueriesDone++
					}
					done.Elapsed = sim.Duration(p.Now())
				}
			}
		})
	}
}

// QueryTiming runs a single query once and returns its elapsed time
// (Section 7 / Section 8 single-stream experiments).
func QueryTiming(srv *engine.Server, d *Dataset, qn, maxdop int, grantPct float64, g *sim.RNG) sim.Duration {
	var elapsed sim.Duration
	srv.Sim.Spawn("tpch-single", func(p *sim.Proc) {
		sess := srv.Open(p)
		defer sess.Close()
		res := sess.Query(d.Query(qn, g), engine.QueryOptions{MaxDOP: maxdop, GrantPct: grantPct})
		elapsed = res.Elapsed
		// Background procs (sampler, checkpointer) generate events forever:
		// the query's end is the end of the Run.
		p.Sim().Halt()
	})
	srv.Sim.Run(sim.Forever)
	return elapsed
}
