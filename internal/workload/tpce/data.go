// Package tpce implements a TPC-E-like brokerage OLTP workload: the
// customer/account/trade schema core, a seeded generator, and a driver
// running a representative subset of the benchmark's transaction types
// with the spec's read/write balance (~77% reads). The paper runs TPC-E
// at scale factors 5000 and 15000 (customers).
//
// Scale mapping: customers, accounts, brokers, and securities generate at
// K = 1 (their cardinalities are modest and their *contention* behaviour
// — fewer customers means hotter rows — is exactly what Table 3
// measures). The trade history tables (trade, trade_history, settlement,
// cash_transaction) are the bulk of the 32–121 GB database and scale down
// with a shared replication factor.
package tpce

import (
	"fmt"
	"strconv"

	"repro/internal/access"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config selects the scale factor (number of customers).
type Config struct {
	Customers int
	// ActualTradesPerCustomer controls down-scaling of the trade history
	// (nominal is 17,280 initial trades per customer). Default 4.
	ActualTradesPerCustomer int
	Seed                    int64
	// WithCSI adds an updatable nonclustered columnstore index on the
	// trade table (the HTAP configuration of Section 2.3).
	WithCSI bool
}

// Spec-derived per-customer cardinalities.
const (
	accountsPerCustomer = 5
	securitiesPer1000   = 685
	// The spec loads 125 initial trade days at 8 trades/customer/day
	// plus intra-day activity: ~17,280 initial trades per customer,
	// which lands the 5000-customer database near the paper's 32 GB.
	nominalTradesPerCust = 17280
	holdingsPerAccount   = 12
)

// Dataset is a generated TPC-E database.
type Dataset struct {
	Cfg Config
	DB  *engine.Database

	Customer, Account, Broker, Security, LastTrade   *storage.Table
	Trade, TradeHistory, Settlement, CashTx, Holding *storage.Table
	Company, DailyMarket                             *storage.Table

	PKCustomer, PKAccount, PKBroker, PKSecurity *access.BTIndex
	PKTrade, IXTradeAcct, IXTradeSec            *access.BTIndex
	PKLastTrade, PKHoldSum, PKCompany           *access.BTIndex
	IXHolding, PKDailyMarket                    *access.BTIndex
	HoldingSummary                              *storage.Table

	TradeCSI *access.CSI

	KTrade int64

	rng *sim.RNG
}

// Build generates the dataset.
func Build(cfg Config) *Dataset {
	if cfg.Customers <= 0 {
		cfg.Customers = 1000
	}
	if cfg.ActualTradesPerCustomer <= 0 {
		cfg.ActualTradesPerCustomer = 4
	}
	d := &Dataset{Cfg: cfg, rng: sim.NewRNG(cfg.Seed + int64(cfg.Customers))}
	db := engine.NewDatabase(fmt.Sprintf("tpce-%d", cfg.Customers))
	d.DB = db

	nCust := int64(cfg.Customers)
	nAcct := nCust * accountsPerCustomer
	nSec := nCust * securitiesPer1000 / 1000
	if nSec < 10 {
		nSec = 10
	}
	nBrok := nCust / 100
	if nBrok < 2 {
		nBrok = 2
	}
	d.KTrade = nominalTradesPerCust / int64(cfg.ActualTradesPerCustomer)
	nTradeActual := nCust * int64(cfg.ActualTradesPerCustomer)

	d.buildFixedSide(db, nCust, nAcct, nBrok, nSec)
	d.buildTradeSide(db, nTradeActual, nAcct, nSec)

	if cfg.WithCSI {
		d.TradeCSI = db.AddCSI(d.Trade)
	}
	return d
}

func (d *Dataset) buildFixedSide(db *engine.Database, nCust, nAcct, nBrok, nSec int64) {
	d.Customer = db.AddTable(storage.NewSchema("customer",
		storage.Column{Name: "c_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "c_tax_id", Type: storage.TInt, Width: 12},
		storage.Column{Name: "c_name", Type: storage.TStr, Width: 50},
		storage.Column{Name: "c_tier", Type: storage.TInt, Width: 1},
		storage.Column{Name: "c_dob", Type: storage.TDate, Width: 4},
		storage.Column{Name: "c_area", Type: storage.TInt, Width: 60},
	), 1)
	cn := d.Customer.Pool(2)
	var name []byte
	d.Customer.Reserve(nCust)
	for i := int64(0); i < nCust; i++ {
		name = padInt(append(name[:0], "Cust#"...), i, 8)
		d.Customer.AppendLoad([]int64{i, i * 7, cn.Code(string(name)), d.rng.Int64n(3) + 1, d.rng.Int64n(20000), i % 1000})
	}
	d.PKCustomer = db.AddBTIndex("pk_customer", d.Customer, []string{"c_id"}, true, true)

	d.Account = db.AddTable(storage.NewSchema("customer_account",
		storage.Column{Name: "ca_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ca_c_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ca_b_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ca_bal", Type: storage.TDecimal, Width: 12},
		storage.Column{Name: "ca_name", Type: storage.TStr, Width: 50},
	), 1)
	an := d.Account.Pool(4)
	d.Account.Reserve(nAcct)
	for i := int64(0); i < nAcct; i++ {
		name = padInt(append(name[:0], "Acct#"...), i, 8)
		d.Account.AppendLoad([]int64{i, i / accountsPerCustomer, i % nBrok, 100000 + d.rng.Int64n(10000000), an.Code(string(name))})
	}
	d.PKAccount = db.AddBTIndex("pk_account", d.Account, []string{"ca_id"}, true, true)

	d.Broker = db.AddTable(storage.NewSchema("broker",
		storage.Column{Name: "b_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "b_name", Type: storage.TStr, Width: 49},
		storage.Column{Name: "b_num_trades", Type: storage.TInt, Width: 8},
		storage.Column{Name: "b_comm_total", Type: storage.TDecimal, Width: 12},
	), 1)
	bn := d.Broker.Pool(1)
	d.Broker.Reserve(nBrok)
	for i := int64(0); i < nBrok; i++ {
		name = padInt(append(name[:0], "Broker#"...), i, 4)
		d.Broker.AppendLoad([]int64{i, bn.Code(string(name)), 0, 0})
	}
	d.PKBroker = db.AddBTIndex("pk_broker", d.Broker, []string{"b_id"}, true, true)

	d.Company = db.AddTable(storage.NewSchema("company",
		storage.Column{Name: "co_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "co_name", Type: storage.TStr, Width: 60},
		storage.Column{Name: "co_sector", Type: storage.TInt, Width: 2},
	), 1)
	con := d.Company.Pool(1)
	d.Company.Reserve(nSec)
	for i := int64(0); i < nSec; i++ {
		name = padInt(append(name[:0], "Company#"...), i, 6)
		d.Company.AppendLoad([]int64{i, con.Code(string(name)), i % 12})
	}
	d.PKCompany = db.AddBTIndex("pk_company", d.Company, []string{"co_id"}, true, true)

	d.Security = db.AddTable(storage.NewSchema("security",
		storage.Column{Name: "s_symb", Type: storage.TInt, Width: 15},
		storage.Column{Name: "s_co_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "s_name", Type: storage.TStr, Width: 70},
		storage.Column{Name: "s_num_out", Type: storage.TInt, Width: 8},
	), 1)
	sn := d.Security.Pool(2)
	d.Security.Reserve(nSec)
	for i := int64(0); i < nSec; i++ {
		name = padInt(append(name[:0], "Sec#"...), i, 6)
		d.Security.AppendLoad([]int64{i, i, sn.Code(string(name)), 1000000 + d.rng.Int64n(1e9)})
	}
	d.PKSecurity = db.AddBTIndex("pk_security", d.Security, []string{"s_symb"}, true, true)

	d.LastTrade = db.AddTable(storage.NewSchema("last_trade",
		storage.Column{Name: "lt_s_symb", Type: storage.TInt, Width: 15},
		storage.Column{Name: "lt_price", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "lt_vol", Type: storage.TInt, Width: 8},
	), 1)
	d.LastTrade.Reserve(nSec)
	for i := int64(0); i < nSec; i++ {
		d.LastTrade.AppendLoad([]int64{i, 2000 + d.rng.Int64n(10000), 0})
	}
	d.PKLastTrade = db.AddBTIndex("pk_last_trade", d.LastTrade, []string{"lt_s_symb"}, true, true)

	d.DailyMarket = db.AddTable(storage.NewSchema("daily_market",
		storage.Column{Name: "dm_s_symb", Type: storage.TInt, Width: 15},
		storage.Column{Name: "dm_date", Type: storage.TDate, Width: 4},
		storage.Column{Name: "dm_close", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "dm_vol", Type: storage.TInt, Width: 8},
	), 1)
	// Five years of daily history per security would dominate memory at
	// K=1; generate a 25-day window (costing uses nominal geometry).
	d.DailyMarket.Reserve(nSec * 25)
	for i := int64(0); i < nSec; i++ {
		for day := int64(0); day < 25; day++ {
			d.DailyMarket.AppendLoad([]int64{i, day, 2000 + d.rng.Int64n(10000), d.rng.Int64n(1e7)})
		}
	}
	d.PKDailyMarket = db.AddBTIndex("pk_daily_market", d.DailyMarket, []string{"dm_s_symb", "dm_date"}, true, true)

	d.HoldingSummary = db.AddTable(storage.NewSchema("holding_summary",
		storage.Column{Name: "hs_ca_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "hs_s_symb", Type: storage.TInt, Width: 15},
		storage.Column{Name: "hs_qty", Type: storage.TInt, Width: 8},
	), 1)
	nSecL := nSec
	d.HoldingSummary.Reserve(nAcct * 2)
	for i := int64(0); i < nAcct; i++ {
		// Two summary positions per account on average.
		for j := int64(0); j < 2; j++ {
			d.HoldingSummary.AppendLoad([]int64{i, (i*3 + j*7) % nSecL, d.rng.Int64n(800) + 100})
		}
	}
	d.PKHoldSum = db.AddBTIndex("pk_holding_summary", d.HoldingSummary, []string{"hs_ca_id", "hs_s_symb"}, true, true)
}

func (d *Dataset) buildTradeSide(db *engine.Database, nTrade, nAcct, nSec int64) {
	d.Trade = db.AddTable(storage.NewSchema("trade",
		storage.Column{Name: "t_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "t_dts", Type: storage.TDate, Width: 8},
		storage.Column{Name: "t_st", Type: storage.TInt, Width: 4},
		storage.Column{Name: "t_tt", Type: storage.TInt, Width: 3},
		storage.Column{Name: "t_s_symb", Type: storage.TInt, Width: 15},
		storage.Column{Name: "t_qty", Type: storage.TInt, Width: 4},
		storage.Column{Name: "t_bid_price", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "t_ca_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "t_exec_name", Type: storage.TStr, Width: 49},
		storage.Column{Name: "t_trade_price", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "t_chrg", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "t_comm", Type: storage.TDecimal, Width: 8},
	), d.KTrade)
	en := d.Trade.Pool(8)
	execName := en.Code("exec")
	d.Trade.Reserve(nTrade)
	for i := int64(0); i < nTrade; i++ {
		price := 2000 + d.rng.Int64n(10000)
		// Keys and timestamps live at nominal scale (i * K) so that
		// window predicates over the nominal id space select correctly.
		d.Trade.AppendLoad([]int64{
			i * d.KTrade, i * d.KTrade, 2, d.rng.Int64n(5), d.rng.Int64n(nSec), (d.rng.Int64n(8) + 1) * 100,
			price, d.rng.Int64n(nAcct), execName, price, 1999, price / 100,
		})
	}
	d.PKTrade = db.AddBTIndex("pk_trade", d.Trade, []string{"t_id"}, true, true)
	d.IXTradeAcct = db.AddBTIndex("ix_trade_acct", d.Trade, []string{"t_ca_id", "t_dts"}, false, false)
	d.IXTradeSec = db.AddBTIndex("ix_trade_sec", d.Trade, []string{"t_s_symb", "t_dts"}, false, false)

	d.TradeHistory = db.AddTable(storage.NewSchema("trade_history",
		storage.Column{Name: "th_t_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "th_dts", Type: storage.TDate, Width: 8},
		storage.Column{Name: "th_st", Type: storage.TInt, Width: 4},
	), d.KTrade)
	d.TradeHistory.Reserve(nTrade * 2)
	for i := int64(0); i < nTrade*2; i++ {
		d.TradeHistory.AppendLoad([]int64{i / 2, i / 2, i % 2})
	}
	db.AddBTIndex("pk_trade_history", d.TradeHistory, []string{"th_t_id", "th_st"}, true, true)

	d.Settlement = db.AddTable(storage.NewSchema("settlement",
		storage.Column{Name: "se_t_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "se_cash", Type: storage.TInt, Width: 1},
		storage.Column{Name: "se_amt", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "se_due", Type: storage.TDate, Width: 4},
	), d.KTrade)
	d.Settlement.Reserve(nTrade)
	for i := int64(0); i < nTrade; i++ {
		d.Settlement.AppendLoad([]int64{i, 1, d.rng.Int64n(1000000), i % 3650})
	}
	db.AddBTIndex("pk_settlement", d.Settlement, []string{"se_t_id"}, true, true)

	d.CashTx = db.AddTable(storage.NewSchema("cash_transaction",
		storage.Column{Name: "ct_t_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ct_dts", Type: storage.TDate, Width: 8},
		storage.Column{Name: "ct_amt", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "ct_name", Type: storage.TStr, Width: 100},
	), d.KTrade)
	ctn := d.CashTx.Pool(3)
	ctName := ctn.Code("cash settlement")
	d.CashTx.Reserve(nTrade)
	for i := int64(0); i < nTrade; i++ {
		d.CashTx.AppendLoad([]int64{i, i, d.rng.Int64n(1000000), ctName})
	}
	db.AddBTIndex("pk_cash_tx", d.CashTx, []string{"ct_t_id"}, true, true)

	d.Holding = db.AddTable(storage.NewSchema("holding",
		storage.Column{Name: "h_t_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "h_ca_id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "h_s_symb", Type: storage.TInt, Width: 15},
		storage.Column{Name: "h_price", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "h_qty", Type: storage.TInt, Width: 4},
	), d.KTrade/4+1)
	kHold := d.KTrade/4 + 1
	nHold := nAcct * holdingsPerAccount / kHold
	if nHold < nAcct/4 {
		nHold = nAcct / 4
	}
	if nHold < 16 {
		nHold = 16
	}
	d.Holding.Reserve(nHold)
	for i := int64(0); i < nHold; i++ {
		d.Holding.AppendLoad([]int64{i, i % nAcct, d.rng.Int64n(nSec), 2000 + d.rng.Int64n(10000), (d.rng.Int64n(8) + 1) * 100})
	}
	d.IXHolding = db.AddBTIndex("ix_holding_acct", d.Holding, []string{"h_ca_id"}, false, false)
	db.AddBTIndex("pk_holding", d.Holding, []string{"h_t_id"}, true, true)
}

// padInt appends i (>= 0) to buf zero-padded to width digits: the bytes
// fmt's %0*d verb gives, without formatting through an interface.
func padInt(buf []byte, i int64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], i, 10)
	for ; width > len(d); width-- {
		buf = append(buf, '0')
	}
	return append(buf, d...)
}

// NSec returns the number of securities.
func (d *Dataset) NSec() int64 { return d.Security.ActualRows() }

// NAcct returns the number of accounts.
func (d *Dataset) NAcct() int64 { return d.Account.ActualRows() }

// NBroker returns the number of brokers.
func (d *Dataset) NBroker() int64 { return d.Broker.ActualRows() }
