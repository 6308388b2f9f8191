package tpce

import (
	"repro/internal/engine"
	"repro/internal/sim"
)

// mix is the transaction mix in percent: the TPC-E customer-emulator
// weights, with Trade-Result arriving at the market rate (paired with
// orders) and Market-Feed folded into Trade-Result.
var mix = []engine.Stmt[user]{
	{Name: "tpce.TradeOrder", Weight: 10.1, Run: (*user).tradeOrder},
	{Name: "tpce.TradeResult", Weight: 10.0, Run: (*user).tradeResult},
	{Name: "tpce.TradeStatus", Weight: 19.0, Run: (*user).tradeStatus},
	{Name: "tpce.CustomerPosition", Weight: 13.0, Run: (*user).customerPosition},
	{Name: "tpce.MarketWatch", Weight: 17.0, Run: (*user).marketWatch},
	{Name: "tpce.SecurityDetail", Weight: 14.0, Run: (*user).securityDetail},
	{Name: "tpce.TradeLookup", Weight: 8.0, Run: (*user).tradeLookup},
	{Name: "tpce.TradeUpdate", Weight: 2.0, Run: (*user).tradeUpdate},
	{Name: "tpce.BrokerVolume", Weight: 4.9, Run: (*user).brokerVolume},
	{Name: "tpce.MarketFeed", Weight: 1.0, Run: (*user).marketFeed},
	{Name: "tpce.DataMaintenance", Weight: 0.2, Run: (*user).dataMaintenance},
}

// Stats counts executed transactions by type.
type Stats = engine.MixStats

// RunUsers spawns `users` closed-loop terminals running the mix until the
// given simulated time (or server stop). The caller advances the clock.
func RunUsers(srv *engine.Server, d *Dataset, users int, until sim.Time, st *Stats) {
	// One skew table for every user: a Zipf is immutable (Next takes the
	// RNG) and building it draws no randomness.
	zA := sim.NewZipf(d.NAcct(), 0.55)
	engine.RunMix(srv, users, mix, until, st, func(sess *engine.Session, g *sim.RNG) *user {
		return &user{d: d, sess: sess, g: g, zA: zA}
	})
}
