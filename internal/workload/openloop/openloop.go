// Package openloop generates open-loop traffic for the serving front
// end: connections arrive by a Poisson process (optionally multiplied
// through a storm window), each issues a geometrically-distributed number
// of requests separated by exponential think times, then disconnects —
// connection churn, not a fixed closed-loop fleet. Offered load is set by
// the arrival rate and does not back off when the server slows, which is
// what makes saturation and shedding observable.
//
// All randomness is drawn at Build time from one RNG in a fixed order,
// so a Plan is a pure function of (Config, seed): the spawner replays it
// without touching an RNG, and determinism is testable by comparing
// plans.
package openloop

import (
	"slices"

	"repro/internal/client"
	"repro/internal/net"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
)

// Storm multiplies the arrival rate by X inside [At, At+Dur) — the
// burst/overload scenario.
type Storm struct {
	At  sim.Duration
	Dur sim.Duration
	X   float64
}

// Config shapes the offered load.
type Config struct {
	Rate      float64      // mean connection arrivals per second
	Horizon   sim.Duration // generate arrivals in [0, Horizon)
	QueryFrac float64      // fraction of requests that are analytical (default 0)
	Storm     *Storm       // optional burst window
}

// Every connection issues a geometric number of requests with mean
// reqPerConn (min 1), separated by exponential think times of mean think.
const (
	reqPerConn = 8.0
	think      = 50 * sim.Millisecond
)

// Req is one planned request.
type Req struct {
	Think sim.Duration // think time before issuing
	Query bool         // analytical (KQuery) vs OLTP (KExec)
	Name  string       // catalog statement name
	Arg   uint64       // wire argument (key / selectivity cell)
}

// ConnPlan is one planned connection.
type ConnPlan struct {
	At   sim.Time // arrival (dial) time
	Reqs []Req
}

// Plan is a fully-materialized traffic schedule.
type Plan struct {
	Cfg   Config
	Conns []ConnPlan
	NReq  int // total requests across all connections
}

// OfferedRPS is the average request rate the plan offers over the horizon.
func (pl *Plan) OfferedRPS() float64 {
	if pl.Cfg.Horizon <= 0 {
		return 0
	}
	return float64(pl.NReq) / pl.Cfg.Horizon.Seconds()
}

// expDur draws an exponential duration with the given mean.
func expDur(g *sim.RNG, mean float64) sim.Duration {
	return sim.DurationOf(g.Exp(mean))
}

// Build materializes the schedule. The key-skew of the closed-loop ASDB
// driver is preserved by drawing request keys from the same Zipf the
// clients use (over a fixed large domain; the server maps them onto
// table cardinalities).
func Build(cfg Config, g *sim.RNG) *Plan {
	pl := &Plan{Cfg: cfg}
	mix := asdb.DefaultMix()
	var totalW float64
	for _, s := range mix {
		totalW += s.Weight
	}
	zKey := sim.NewZipf(1<<20, 0.6)

	var at sim.Duration
	for {
		rate := cfg.Rate
		if s := cfg.Storm; s != nil && at >= s.At && at < s.At+s.Dur && s.X > 0 {
			rate *= s.X
		}
		if rate <= 0 {
			break
		}
		at += expDur(g, 1/rate)
		if at >= cfg.Horizon {
			break
		}
		c := ConnPlan{At: sim.Time(at)}
		// Geometric request count with mean reqPerConn, min 1.
		nreq := 1
		for g.Float64() > 1/reqPerConn {
			nreq++
		}
		for r := 0; r < nreq; r++ {
			req := Req{Think: expDur(g, think.Seconds())}
			if g.Float64() < cfg.QueryFrac {
				req.Query = true
				req.Name = "asdb.SumBig"
				req.Arg = uint64(g.Int64n(8))
			} else {
				pick := g.Float64() * totalW
				for _, s := range mix {
					pick -= s.Weight
					if pick <= 0 {
						req.Name = s.Name
						break
					}
				}
				req.Arg = uint64(zKey.Next(g))
			}
			c.Reqs = append(c.Reqs, req)
		}
		pl.Conns = append(pl.Conns, c)
		pl.NReq += nreq
	}
	return pl
}

// Sample is one completed request observation.
type Sample struct {
	At   sim.Time     // completion time
	Lat  sim.Duration // request latency (send to reply)
	OK   bool
	Code proto.Code // reply code when !OK
}

// Stats accumulates the run's observations. The sim's lockstep execution
// makes shared mutation from many procs safe.
type Stats struct {
	Sent    int64
	OK      int64
	Shed    int64 // CodeOverloaded replies
	Failed  int64 // other error replies
	Refused int64 // dials refused / failed handshakes
	Dropped int64 // transport errors mid-request (stop, close)
	Samples []Sample
}

// RStats accumulates a resilient-client run's observations: per-request
// outcomes at the client boundary, the client-side ack log, and the
// shared resilience metrics.
type RStats struct {
	Acked   int64 // execs acknowledged OK
	Unknown int64 // execs whose outcome is ambiguous (never retried)
	Samples []Sample
	Acks    []client.AckKey // client-observed acks, in ack order
	M       client.Metrics
}

// RunResilient replays the plan through resilient clients: unlike Run,
// a connection survives resets, partitions, and failover — the client
// reconnects, rotates through endpoints, and keeps issuing its script.
// Each connection's backoff-jitter stream forks from g in plan order.
func RunResilient(sm *sim.Sim, nw *net.Network, endpoints []string, pl *Plan, st *RStats, g *sim.RNG) {
	st.Samples = slices.Grow(st.Samples, pl.NReq) // one sample per planned request
	for i := range pl.Conns {
		cp := &pl.Conns[i]
		jg := g.Fork()
		sm.SpawnAt(cp.At, "resilient-conn", func(p *sim.Proc) {
			r := client.NewResilient(nw, endpoints, &st.M, jg, "chaos")
			r.OnAck = func(k client.AckKey) { st.Acks = append(st.Acks, k) }
			defer r.Close()
			for _, rq := range cp.Reqs {
				if rq.Think > 0 {
					p.Sleep(rq.Think)
				}
				t0 := p.Now()
				if rq.Query {
					rep, err := r.Query(p, rq.Name, rq.Arg)
					ok := err == nil && rep.OK
					st.Samples = append(st.Samples, Sample{
						At: p.Now(), Lat: sim.Duration(p.Now() - t0), OK: ok, Code: rep.Code,
					})
					continue
				}
				rep, out := r.Exec(p, rq.Name, rq.Arg)
				st.Samples = append(st.Samples, Sample{
					At: p.Now(), Lat: sim.Duration(p.Now() - t0),
					OK: out == client.OutcomeAcked, Code: rep.Code,
				})
				switch out {
				case client.OutcomeAcked:
					st.Acked++
				case client.OutcomeUnknown:
					st.Unknown++
				}
			}
		})
	}
}

// Run spawns one proc per planned connection against addr on nw. Each
// proc starts at its arrival time, replays its request script, and records
// latency samples. Run returns immediately; the caller advances the
// simulated clock.
func Run(sm *sim.Sim, nw *net.Network, addr string, pl *Plan, st *Stats) {
	st.Samples = slices.Grow(st.Samples, pl.NReq) // at most one sample per planned request
	for i := range pl.Conns {
		cp := &pl.Conns[i]
		sm.SpawnAt(cp.At, "openloop-conn", func(p *sim.Proc) {
			cl, err := client.Dial(p, nw, addr, "openloop")
			if err != nil {
				st.Refused++
				return
			}
			defer cl.Close(p)
			for _, rq := range cp.Reqs {
				if rq.Think > 0 {
					p.Sleep(rq.Think)
				}
				t0 := p.Now()
				st.Sent++
				var rep client.Reply
				if rq.Query {
					rep, err = cl.Query(p, rq.Name, rq.Arg)
				} else {
					rep, err = cl.Exec(p, rq.Name, rq.Arg)
				}
				if err != nil {
					st.Dropped++
					return
				}
				s := Sample{At: p.Now(), Lat: sim.Duration(p.Now() - t0), OK: rep.OK, Code: rep.Code}
				st.Samples = append(st.Samples, s)
				switch {
				case rep.OK:
					st.OK++
				case rep.Code == proto.CodeOverloaded:
					st.Shed++
				case rep.Code == proto.CodeShutdown:
					st.Dropped++
					return
				default:
					st.Failed++
				}
			}
		})
	}
}
