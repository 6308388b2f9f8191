package tpce

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func tinyServer(t *testing.T, customers int, withCSI bool) (*engine.Server, *Dataset) {
	t.Helper()
	d := Build(Config{Customers: customers, ActualTradesPerCustomer: 4, Seed: 3, WithCSI: withCSI})
	srv := engine.NewServer(engine.Config{Seed: 5})
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	return srv, d
}

// The builder's names must be the bytes fmt's %0*d gave, so every string
// pool assigns the codes it did.
func TestPadIntMatchesSprintf(t *testing.T) {
	for _, width := range []int{4, 6, 8} {
		for _, i := range []int64{0, 7, 42, 999, 1000, 9999, 10000, 123456, 99999999, 123456789, 1 << 62} {
			want := fmt.Sprintf("Cust#%0*d", width, i)
			if got := string(padInt([]byte("Cust#"), i, width)); got != want {
				t.Errorf("padInt(%d, %d) = %q, want %q", i, width, got, want)
			}
		}
	}
}

func TestDatasetScaling(t *testing.T) {
	d := Build(Config{Customers: 1000, ActualTradesPerCustomer: 4})
	if d.Customer.ActualRows() != 1000 {
		t.Fatalf("customers = %d", d.Customer.ActualRows())
	}
	if d.Account.ActualRows() != 5000 {
		t.Fatalf("accounts = %d", d.Account.ActualRows())
	}
	if d.Trade.NominalRows() != 1000*nominalTradesPerCust {
		t.Fatalf("nominal trades = %d", d.Trade.NominalRows())
	}
	if d.Trade.ActualRows() != 4000 {
		t.Fatalf("actual trades = %d", d.Trade.ActualRows())
	}
	// Bigger scale factor => bigger database (Table 2's shading).
	d2 := Build(Config{Customers: 3000, ActualTradesPerCustomer: 4})
	if d2.DB.TotalBytes() <= d.DB.TotalBytes() {
		t.Fatal("database size not growing with SF")
	}
	if d.DB.IndexBytes() <= 0 {
		t.Fatal("no index bytes")
	}
}

func TestMixRunsAndCommits(t *testing.T) {
	srv, d := tinyServer(t, 500, false)
	var st Stats
	until := sim.Time(1 * sim.Second)
	RunUsers(srv, d, 20, until, &st)
	srv.Sim.Run(until)
	srv.Stop()
	srv.Sim.Run(until + sim.Time(300*sim.Second))
	if st.Total < 30 {
		t.Fatalf("only %d transactions completed", st.Total)
	}
	if srv.Ctr.TxnCommits+srv.Ctr.TxnAborts < int64(st.Total) {
		t.Fatalf("commits %d + aborts %d < transactions %d", srv.Ctr.TxnCommits, srv.Ctr.TxnAborts, st.Total)
	}
	// Victim aborts (lock-wait timeouts) exist but must stay rare.
	if srv.Ctr.TxnAborts*20 > srv.Ctr.TxnCommits {
		t.Fatalf("abort rate too high: %d aborts vs %d commits", srv.Ctr.TxnAborts, srv.Ctr.TxnCommits)
	}
	// The mix generates both reads and writes.
	if srv.Ctr.SSDWriteBytes == 0 {
		t.Fatal("no write traffic (log/checkpoint)")
	}
	// Lock manager liveness: nothing should still be waiting after drain.
	if w := srv.Locks.WaitingLongest(srv.Sim.Now()); w > 0 {
		t.Fatalf("lock waiter stuck for %v", w)
	}
	// All transaction types should have run.
	for _, name := range []string{"tpce.TradeOrder", "tpce.TradeResult", "tpce.TradeStatus", "tpce.MarketWatch"} {
		if st.ByType[name] == 0 {
			t.Fatalf("transaction type %s never ran (%v)", name, st.ByType)
		}
	}
}

func TestContentionDropsWithScale(t *testing.T) {
	run := func(customers int) float64 {
		srv, d := tinyServer(t, customers, false)
		var st Stats
		until := sim.Time(1 * sim.Second)
		RunUsers(srv, d, 30, until, &st)
		srv.Sim.Run(until)
		srv.Stop()
		srv.Sim.Run(until + sim.Time(300*sim.Second))
		lockNs := float64(srv.Ctr.WaitNs[metrics.WaitLock])
		commits := float64(srv.Ctr.TxnCommits)
		if commits == 0 {
			t.Fatal("no commits")
		}
		return lockNs / commits
	}
	small := run(200)
	large := run(2000)
	if large >= small {
		t.Fatalf("lock wait per txn should drop with more customers: small=%.0fns large=%.0fns", small, large)
	}
}

func TestAnalyticalQueriesExecute(t *testing.T) {
	srv, d := tinyServer(t, 500, true)
	if d.TradeCSI == nil {
		t.Fatal("HTAP config missing trade CSI")
	}
	g := sim.NewRNG(7)
	for qn := 0; qn < NumAnalytical; qn++ {
		got := 0
		srv.Sim.Spawn("analyst", func(p *sim.Proc) {
			res := srv.Open(p).Query(d.AnalyticalQuery(qn, g), engine.QueryOptions{})
			got = len(res.Rows)
		})
		srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
		if got == 0 {
			t.Fatalf("analytical query %d returned no rows", qn)
		}
	}
	srv.Stop()
}
