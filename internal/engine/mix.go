package engine

import "repro/internal/sim"

// Stmt is one statement of a closed-loop workload's mix: the name its
// executions are counted and recorded under (the query-stats template),
// its share of the mix (relative to the other rows') and its body, run
// against one client's state.
type Stmt[U any] struct {
	Name   string
	Weight float64
	Run    func(*U) bool
}

// MixStats counts the statements RunMix's clients completed, by Stmt.Name.
type MixStats struct {
	ByType map[string]int
	Total  int
}

// RunMix spawns n closed-loop clients (the paper uses 128 for ASDB, 100
// for TPC-E), each drawing its next statement from stmts by weight until
// the given simulated time or server stop. open builds a client's state
// from its session and its random stream. The caller advances the clock.
func RunMix[U any](srv *Server, n int, stmts []Stmt[U], until sim.Time, st *MixStats, open func(*Session, *sim.RNG) *U) {
	if st.ByType == nil {
		st.ByType = make(map[string]int)
	}
	var totalW float64
	for _, s := range stmts {
		totalW += s.Weight
	}
	for i := 0; i < n; i++ {
		srv.Sim.Spawn("mix-client", func(p *sim.Proc) {
			// BindCtx forks the session's access stream off the simulation's
			// RNG and the client's own stream forks after it: that order is
			// what every recorded digest was drawn under.
			sess := srv.Open(p).BindCtx()
			defer sess.Close()
			g := srv.Sim.RNG().Fork()
			u := open(sess, g)
			for !srv.Stopped() && p.Now() < until {
				pick := g.Float64() * totalW
				for _, s := range stmts {
					pick -= s.Weight
					if pick <= 0 {
						// Exec attaches per-attempt statement counters,
						// folds the attempt into the server's query stats
						// under s.Name, and retries transient aborts under
						// Config.Retry.
						ok := sess.Exec(s.Name, g, func() bool { return s.Run(u) })
						// Without retries, count every attempt as the
						// pre-retry driver did (aborts included).
						if ok || !srv.Cfg.Retry {
							st.ByType[s.Name]++
							st.Total++
						}
						break
					}
				}
			}
		})
	}
}
