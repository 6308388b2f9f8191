package tpce

import (
	"repro/internal/engine"
	"repro/internal/sim"
)

// Mix is the transaction mix in percent. The default follows the TPC-E
// customer-emulator weights, with Trade-Result arriving at the market
// rate (paired with orders) and Market-Feed folded into Trade-Result.
type Mix struct {
	TradeOrder       float64
	TradeResult      float64
	TradeStatus      float64
	CustomerPosition float64
	MarketWatch      float64
	SecurityDetail   float64
	TradeLookup      float64
	TradeUpdate      float64
	BrokerVolume     float64
	MarketFeed       float64
	DataMaintenance  float64
}

// DefaultMix returns the spec-derived weights.
func DefaultMix() Mix {
	return Mix{
		TradeOrder:       10.1,
		TradeResult:      10.0,
		TradeStatus:      19.0,
		CustomerPosition: 13.0,
		MarketWatch:      17.0,
		SecurityDetail:   14.0,
		TradeLookup:      8.0,
		TradeUpdate:      2.0,
		BrokerVolume:     4.9,
		MarketFeed:       1.0,
		DataMaintenance:  0.2,
	}
}

// Stats counts executed transactions by type.
type Stats struct {
	ByType map[string]int
	Total  int
}

// RunUsers spawns `users` closed-loop terminals running the mix until the
// given simulated time (or server stop). The caller advances the clock.
func RunUsers(srv *engine.Server, d *Dataset, users int, mix Mix, until sim.Time, st *Stats) {
	if st.ByType == nil {
		st.ByType = make(map[string]int)
	}
	type entry struct {
		name  string
		label string // query-stats template, "tpce.<name>"
		w     float64
		fn    func(*user) bool
	}
	entries := []entry{
		{name: "TradeOrder", w: mix.TradeOrder, fn: (*user).tradeOrder},
		{name: "TradeResult", w: mix.TradeResult, fn: (*user).tradeResult},
		{name: "TradeStatus", w: mix.TradeStatus, fn: (*user).tradeStatus},
		{name: "CustomerPosition", w: mix.CustomerPosition, fn: (*user).customerPosition},
		{name: "MarketWatch", w: mix.MarketWatch, fn: (*user).marketWatch},
		{name: "SecurityDetail", w: mix.SecurityDetail, fn: (*user).securityDetail},
		{name: "TradeLookup", w: mix.TradeLookup, fn: (*user).tradeLookup},
		{name: "TradeUpdate", w: mix.TradeUpdate, fn: (*user).tradeUpdate},
		{name: "BrokerVolume", w: mix.BrokerVolume, fn: (*user).brokerVolume},
		{name: "MarketFeed", w: mix.MarketFeed, fn: (*user).marketFeed},
		{name: "DataMaintenance", w: mix.DataMaintenance, fn: (*user).dataMaintenance},
	}
	var totalW float64
	for i := range entries {
		entries[i].label = "tpce." + entries[i].name
		totalW += entries[i].w
	}
	// One skew table for every user: a Zipf is immutable (Next takes the
	// RNG) and building it draws no randomness.
	zA := sim.NewZipf(d.NAcct(), 0.55)
	for i := 0; i < users; i++ {
		srv.Sim.Spawn("tpce-user", func(p *sim.Proc) {
			u := &user{
				d:    d,
				sess: srv.Open(p).BindCtx(),
				g:    srv.Sim.RNG().Fork(),
				zA:   zA,
			}
			defer u.sess.Close()
			for !srv.Stopped() && p.Now() < until {
				pick := u.g.Float64() * totalW
				for _, e := range entries {
					pick -= e.w
					if pick <= 0 {
						// Exec attaches per-attempt statement counters,
						// folds the attempt into the server's query stats
						// under e.label, and retries transient aborts under
						// the session policy.
						ok := u.sess.Exec(e.label, u.g, func() bool { return e.fn(u) })
						// Without a retry policy, count every attempt as
						// the pre-retry driver did (aborts included).
						if ok || !u.sess.Retry.Enabled() {
							st.ByType[e.name]++
							st.Total++
						}
						break
					}
				}
			}
		})
	}
}
