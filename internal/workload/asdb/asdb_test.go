package asdb

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

func tinyServer(t *testing.T, sf int) (*engine.Server, *Dataset) {
	t.Helper()
	d := Build(Config{SF: sf, ActualRowsPerSF: 10, Seed: 3})
	srv := engine.NewServer(engine.Config{Seed: 5})
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	return srv, d
}

func TestScalingTables(t *testing.T) {
	d := Build(Config{SF: 10, ActualRowsPerSF: 10})
	if d.Big.ActualRows() != 100 {
		t.Fatalf("big actual = %d", d.Big.ActualRows())
	}
	if d.Big.NominalRows() != 10*bigRowsPerSF {
		t.Fatalf("big nominal = %d", d.Big.NominalRows())
	}
	d2 := Build(Config{SF: 30, ActualRowsPerSF: 10})
	if d2.DB.DataBytes() <= d.DB.DataBytes() {
		t.Fatal("data not scaling with SF")
	}
	// Index share is tiny (Table 2: 0.21 GB on 51 GB).
	if ratio := float64(d.DB.IndexBytes()) / float64(d.DB.DataBytes()); ratio > 0.05 {
		t.Fatalf("index/data ratio = %.3f, want small", ratio)
	}
}

func TestTable2SizeAnchor(t *testing.T) {
	// SF 2000 should land near the paper's 51.13 GB (within 25%).
	d := Build(Config{SF: 2000, ActualRowsPerSF: 2})
	gb := float64(d.DB.DataBytes()) / (1 << 30)
	if gb < 38 || gb > 64 {
		t.Fatalf("SF 2000 data = %.2f GB, want ~51 GB", gb)
	}
}

func TestMixRunsAllOps(t *testing.T) {
	srv, d := tinyServer(t, 10)
	var st Stats
	until := sim.Time(4 * sim.Second)
	RunClients(srv, d, 16, DefaultMix(), until, &st)
	srv.Sim.Run(until)
	srv.Stop()
	srv.Sim.Run(until + sim.Time(120*sim.Second))
	if st.Total < 50 {
		t.Fatalf("only %d ops", st.Total)
	}
	for _, name := range []string{"asdb.PointRead", "asdb.Update", "asdb.Insert", "asdb.Delete"} {
		if st.ByType[name] == 0 {
			t.Fatalf("op %s never ran: %v", name, st.ByType)
		}
	}
	if srv.Ctr.TxnCommits == 0 || srv.Ctr.SSDWriteBytes == 0 {
		t.Fatal("no commits or writes")
	}
	if w := srv.Locks.WaitingLongest(srv.Sim.Now()); w > 0 {
		t.Fatalf("stuck lock waiter: %v", w)
	}
	// Growing table grew.
	if d.Growing.NominalRows() <= int64(d.Cfg.SF)*growInitPerSF {
		t.Fatal("growing table did not grow")
	}
}

// A point read, an update and a delete, each a whole transaction through
// Session.Exec, allocate nothing once the session's scratch, the lock
// manager's free lists and the wait queues have warmed up. (Insert is left
// out: it materializes rows and grows the trees.)
func TestSteadyStateTransactionsAllocateNothing(t *testing.T) {
	srv, d := tinyServer(t, 10)
	stop := false
	ops := 0
	srv.Sim.Spawn("client", func(p *sim.Proc) {
		sess := srv.Open(p).BindCtx()
		defer sess.Close()
		g := srv.Sim.RNG().Fork()
		for !stop {
			nid := g.Int64n(d.Big.NominalRows())
			sess.Exec("asdb.PointRead", g, func() bool { return d.PointReadAt(sess, nid) })
			sess.Exec("asdb.Update", g, func() bool { return d.UpdateAt(sess, nid) })
			del := g.Int64n(d.Growing.NominalRows())
			sess.Exec("asdb.Delete", g, func() bool { return d.DeleteAt(sess, del) })
			ops += 3
		}
	})
	window := func() { srv.Sim.Run(srv.Sim.Now() + sim.Time(20*sim.Millisecond)) }
	for i := 0; i < 5; i++ {
		window()
	}
	before := ops
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("%v allocs per 20 ms window of point-read/update/delete transactions, want 0", avg)
	}
	if ops-before < 300 {
		t.Fatalf("only %d transactions in the measured windows", ops-before)
	}
	if srv.Ctr.TxnCommits < int64(ops) {
		t.Fatalf("%d commits for %d transactions", srv.Ctr.TxnCommits, ops)
	}
	stop = true
	srv.Stop()
	srv.Sim.Run(srv.Sim.Now() + sim.Time(120*sim.Second))
}
