package tpce

import (
	"slices"

	"repro/internal/access"
	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/txn"
)

// Transactions follow a global lock-acquisition order — tables in catalog
// creation order, rows ascending within a table — so wait-for cycles
// cannot form (see package lock). Range reads that only gather values
// take table-level intent locks, which never conflict here.

// user is one terminal's state.
type user struct {
	d    *Dataset
	sess *engine.Session
	g    *sim.RNG
	zA   *sim.Zipf // account skew (customer tiers)

	// Scratch reused from one transaction to the next: the ID batch a
	// transaction gathers and sorts into lock order, and hsKey's result.
	ids []int64
	key [2]int64
}

func (u *user) pickAccount() int64 {
	return u.zA.Next(u.g)
}

// key1 returns the PK search key for a nominal row of a K=1 table.
func key1(v int64) btree.Key { return btree.Key{v} }

// tradeKey maps a nominal trade id to the actual key stored in the tree.
func (u *user) tradeKey(nid int64) btree.Key {
	a := u.d.Trade.ToActual(nid)
	return btree.Key{u.d.Trade.Get(a, 0)}
}

// hsKey returns the holding-summary PK of a nominal row, valid until the
// next call.
func (u *user) hsKey(hsNid int64) btree.Key {
	a := u.d.HoldingSummary.ToActual(hsNid)
	u.key = [2]int64{u.d.HoldingSummary.Get(a, 0), u.d.HoldingSummary.Get(a, 1)}
	return u.key[:]
}

// sortIDs sorts a batch built on u.ids[:0] into lock order and keeps its
// storage for the next transaction.
func (u *user) sortIDs(ids []int64) {
	u.ids = ids
	slices.Sort(ids)
}

// tradeIndexes are the indexes maintained by a trade insert.
func (d *Dataset) tradeIndexes() []*access.BTIndex {
	return []*access.BTIndex{d.PKTrade, d.IXTradeAcct, d.IXTradeSec}
}

// tradeOrder executes a market buy/sell order: read the chain of
// customer, account, broker, and the security's last trade, update the
// account's holding summary, and insert the new trade (plus history).
func (u *user) tradeOrder() bool {
	d := u.d
	tx := u.sess.Begin()
	ca := u.pickAccount()
	cust := ca / accountsPerCustomer
	u.sess.Read(tx, d.PKCustomer, key1(cust), cust)
	u.sess.Read(tx, d.PKAccount, key1(ca), ca)
	broker := d.Account.Get(ca, 2)
	u.sess.Read(tx, d.PKBroker, key1(broker), broker)
	symb := u.g.Int64n(d.NSec())
	u.sess.Read(tx, d.PKLastTrade, key1(symb), symb)

	// Holding-summary position for this account: hot on small SFs.
	hsNid := ca * 2
	u.sess.Update(tx, d.PKHoldSum, u.hsKey(hsNid), hsNid, func(w *engine.RowWriter) {
		w.Add(2, 100)
	})

	price := d.LastTrade.Get(symb%d.LastTrade.ActualRows(), 1)
	tid := d.Trade.NominalRows()
	row := []int64{tid, tid, 0, u.g.Int64n(5), symb, (u.g.Int64n(8) + 1) * 100,
		price, ca, 0, price, 1999, price / 100}
	u.sess.Insert(tx, d.Trade, row, d.tradeIndexes(), d.TradeCSI)
	u.sess.Insert(tx, d.TradeHistory, []int64{tid, tid, 0},
		[]*access.BTIndex{d.DB.Index("pk_trade_history")}, nil)
	return u.sess.Commit(tx)
}

// tradeResult completes a recent order: update account and broker
// balances, post the execution price to last_trade, finalize the trade
// row, and insert settlement and cash records.
func (u *user) tradeResult() bool {
	d := u.d
	tx := u.sess.Begin()
	// A recently submitted trade.
	window := int64(10000)
	if n := d.Trade.NominalRows(); n < window {
		window = n
	}
	tid := d.Trade.NominalRows() - 1 - u.g.Int64n(window)
	if tid < 0 {
		tid = 0
	}
	a := d.Trade.ToActual(tid)
	ca := d.Trade.Get(a, 7)
	symb := d.Trade.Get(a, 4)

	// Table-order locking: account(2) -> broker(3) -> last_trade(6) ->
	// trade(9) -> inserts into higher tables.
	u.sess.Update(tx, d.PKAccount, key1(ca), ca, func(w *engine.RowWriter) {
		w.Add(3, 100)
	})
	broker := d.Account.Get(ca%d.Account.ActualRows(), 2)
	u.sess.Update(tx, d.PKBroker, key1(broker), broker, func(w *engine.RowWriter) {
		w.Add(2, 1)
		w.Add(3, 50)
	})
	u.sess.Update(tx, d.PKLastTrade, key1(symb), symb, func(w *engine.RowWriter) {
		w.Add(2, 100)
	})
	u.sess.Update(tx, d.PKTrade, u.tradeKey(tid), tid, func(w *engine.RowWriter) {
		w.Set(2, 2) // completed
	})
	u.sess.Insert(tx, d.TradeHistory, []int64{tid, tid, 1},
		[]*access.BTIndex{d.DB.Index("pk_trade_history")}, nil)
	u.sess.Insert(tx, d.Settlement, []int64{tid, 1, u.g.Int64n(1000000), 2},
		[]*access.BTIndex{d.DB.Index("pk_settlement")}, nil)
	u.sess.Insert(tx, d.CashTx, []int64{tid, tid, u.g.Int64n(1000000), 0},
		[]*access.BTIndex{d.DB.Index("pk_cash_tx")}, nil)

	// FIFO lot matching in the holding table (the spec's Trade-Result
	// frame 2): a sell consumes the account's oldest lot of the traded
	// security; a buy appends a new lot. Holding is the last table in
	// the lock order, so this stays deadlock-safe.
	if tx.Active() {
		u.matchHolding(tx, ca, symb)
	}
	return u.sess.Commit(tx)
}

// matchHolding consumes or creates a holding lot for (account, symbol).
func (u *user) matchHolding(tx *txn.Txn, ca, symb int64) {
	d := u.d
	sell := u.g.Bool(0.5)
	if sell {
		// Oldest lot for the account with this symbol (FIFO). LookupAll
		// returns h_t_id-appended entries in ascending key order, which
		// for the (h_ca_id) index means insertion order.
		for _, rowID := range d.IXHolding.LookupAll(btree.Key{ca}) {
			if d.Holding.Get(rowID, 2) != symb {
				continue
			}
			htid := d.Holding.Get(rowID, 0)
			nid := htid % d.Holding.NominalRows()
			u.sess.Update(tx, d.DB.Index("pk_holding"), btree.Key{htid}, nid, func(w *engine.RowWriter) {
				qty := w.Get(4) - 100
				if qty < 0 {
					qty = 0
				}
				w.Set(4, qty)
			})
			return
		}
		return // nothing to sell: fall through without a lot change
	}
	htid := d.Holding.NominalRows()
	u.sess.Insert(tx, d.Holding,
		[]int64{htid, ca, symb, 2000 + u.g.Int64n(10000), 100},
		[]*access.BTIndex{d.IXHolding, d.DB.Index("pk_holding")}, nil)
}

// tradeStatus reads the fifty most recent trades of an account.
func (u *user) tradeStatus() bool {
	d := u.d
	tx := u.sess.Begin()
	ca := u.pickAccount()
	u.sess.Read(tx, d.PKAccount, key1(ca), ca)
	nid := d.Trade.NominalRows() * ca / d.NAcct() // position within the index
	u.sess.ReadRange(tx, d.IXTradeAcct, btree.Key{ca}, nid, 50)
	return u.sess.Commit(tx)
}

// customerPosition reads a customer's accounts, their holding summaries,
// and current prices.
func (u *user) customerPosition() bool {
	d := u.d
	tx := u.sess.Begin()
	ca := u.pickAccount()
	cust := ca / accountsPerCustomer
	u.sess.Read(tx, d.PKCustomer, key1(cust), cust)
	symbols := u.ids[:0]
	for acc := cust * accountsPerCustomer; acc < (cust+1)*accountsPerCustomer; acc++ {
		u.sess.Read(tx, d.PKAccount, key1(acc), acc)
		// Gather positions via an intent-locked range read.
		ids := u.sess.ReadRange(tx, d.PKHoldSum, btree.Key{acc}, acc*2, 2)
		for _, rid := range ids {
			symbols = append(symbols, d.HoldingSummary.Get(rid, 1))
		}
	}
	u.sortIDs(symbols)
	seen := int64(-1)
	for _, s := range symbols {
		if s == seen {
			continue
		}
		seen = s
		u.sess.Read(tx, d.PKLastTrade, key1(s), s)
	}
	return u.sess.Commit(tx)
}

// marketWatch reads the last trade of ~100 securities (ascending, to
// respect the lock order against tradeResult's updates).
func (u *user) marketWatch() bool {
	d := u.d
	tx := u.sess.Begin()
	n := d.NSec()
	count := int64(100)
	if count > n {
		count = n
	}
	start := u.g.Int64n(n)
	syms := u.ids[:0]
	for i := int64(0); i < count; i++ {
		syms = append(syms, (start+i*7)%n)
	}
	u.sortIDs(syms)
	prev := int64(-1)
	for _, s := range syms {
		if s == prev {
			continue
		}
		prev = s
		u.sess.Read(tx, d.PKLastTrade, key1(s), s)
	}
	return u.sess.Commit(tx)
}

// securityDetail reads a security, its company, and daily market history.
func (u *user) securityDetail() bool {
	d := u.d
	tx := u.sess.Begin()
	symb := u.g.Int64n(d.NSec())
	u.sess.Read(tx, d.PKCompany, key1(symb), symb)
	u.sess.Read(tx, d.PKSecurity, key1(symb), symb)
	u.sess.ReadRange(tx, d.PKDailyMarket, btree.Key{symb}, symb*25, 25)
	return u.sess.Commit(tx)
}

// tradeLookup reads a batch of historical trades uniformly over the whole
// history — the cold-read path that drives PAGEIOLATCH at large scale
// factors.
func (u *user) tradeLookup() bool {
	d := u.d
	tx := u.sess.Begin()
	n := d.Trade.NominalRows()
	ids := u.ids[:0]
	for i := 0; i < 20; i++ {
		ids = append(ids, u.g.Int64n(n))
	}
	u.sortIDs(ids)
	prev := int64(-1)
	for _, tid := range ids {
		if tid == prev {
			continue
		}
		prev = tid
		u.sess.Read(tx, d.PKTrade, u.tradeKey(tid), tid)
	}
	// Follow a few into settlement and cash history (also cold).
	for _, tid := range ids[:5] {
		a := d.Settlement.ToActual(tid % d.Settlement.NominalRows())
		u.sess.Read(tx, d.DB.Index("pk_settlement"), btree.Key{d.Settlement.Get(a, 0)}, tid%d.Settlement.NominalRows())
	}
	return u.sess.Commit(tx)
}

// tradeUpdate rewrites historical trades' executor names (cold writes).
// Row IDs are sorted so multi-row X locks respect the global order.
func (u *user) tradeUpdate() bool {
	d := u.d
	tx := u.sess.Begin()
	n := d.Trade.NominalRows()
	ids := append(u.ids[:0], u.g.Int64n(n), u.g.Int64n(n), u.g.Int64n(n))
	u.sortIDs(ids)
	prev := int64(-1)
	for _, tid := range ids {
		if tid == prev {
			continue
		}
		prev = tid
		u.sess.Update(tx, d.PKTrade, u.tradeKey(tid), tid, nil)
	}
	return u.sess.Commit(tx)
}

// marketFeed applies a market-data tick batch: update last_trade for ~20
// securities (ascending, respecting the lock order) — the MEE's write
// path that contends with marketWatch readers.
func (u *user) marketFeed() bool {
	d := u.d
	tx := u.sess.Begin()
	n := d.NSec()
	count := int64(20)
	if count > n {
		count = n
	}
	start := u.g.Int64n(n)
	syms := u.ids[:0]
	for i := int64(0); i < count; i++ {
		syms = append(syms, (start+i*11)%n)
	}
	u.sortIDs(syms)
	prev := int64(-1)
	for _, sm := range syms {
		if sm == prev {
			continue
		}
		prev = sm
		ok := u.sess.Update(tx, d.PKLastTrade, key1(sm), sm, func(w *engine.RowWriter) {
			w.Add(1, u.g.Int64n(21)-10)
			w.Add(2, 100)
		})
		if !ok {
			return false // victim: already aborted
		}
	}
	return u.sess.Commit(tx)
}

// dataMaintenance performs the spec's background row touch-ups: rewrite a
// company and daily-market row (cold, low frequency).
func (u *user) dataMaintenance() bool {
	d := u.d
	tx := u.sess.Begin()
	co := u.g.Int64n(d.Company.ActualRows())
	u.sess.Update(tx, d.PKCompany, key1(co), co, nil)
	dm := co*25 + u.g.Int64n(25)
	u.sess.Update(tx, d.PKDailyMarket,
		btree.Key{d.DailyMarket.Get(d.DailyMarket.ToActual(dm), 0), d.DailyMarket.Get(d.DailyMarket.ToActual(dm), 1)},
		dm, nil)
	return u.sess.Commit(tx)
}

// brokerVolume aggregates recent trade volume for a set of brokers.
func (u *user) brokerVolume() bool {
	d := u.d
	tx := u.sess.Begin()
	nb := d.NBroker()
	start := u.g.Int64n(nb)
	for i := int64(0); i < 3 && i < nb; i++ {
		b := (start + i) % nb
		u.sess.Read(tx, d.PKBroker, key1(b), b)
	}
	// Scan a slice of recent trades through the security index.
	symb := u.g.Int64n(d.NSec())
	nid := d.Trade.NominalRows() * symb / d.NSec()
	u.sess.ReadRange(tx, d.IXTradeSec, btree.Key{symb}, nid, 200)
	return u.sess.Commit(tx)
}
