package engine

import (
	"testing"

	"repro/internal/access"
	"repro/internal/btree"
	"repro/internal/cgroup"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/storage"
)

func testDB() *Database {
	db := NewDatabase("testdb")
	acct := db.AddTable(storage.NewSchema("account",
		storage.Column{Name: "id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "bal", Type: storage.TDecimal, Width: 8},
	), 10)
	for i := int64(0); i < 500; i++ {
		acct.AppendLoad([]int64{i, 1000})
	}
	db.AddBTIndex("pk_account", acct, []string{"id"}, true, true)
	hist := db.AddTable(storage.NewSchema("history",
		storage.Column{Name: "hid", Type: storage.TInt, Width: 8},
		storage.Column{Name: "aid", Type: storage.TInt, Width: 8},
		storage.Column{Name: "amt", Type: storage.TDecimal, Width: 8},
	), 10)
	db.AddBTIndex("pk_history", hist, []string{"hid"}, true, true)
	return db
}

func TestServerOLTPRoundTrip(t *testing.T) {
	s := NewServer(Config{Seed: 3})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	acct := db.Table("account")
	pk := db.Index("pk_account")
	hist := db.Table("history")
	hpk := db.Index("pk_history")

	const users = 8
	done := 0
	for u := 0; u < users; u++ {
		s.Sim.Spawn("user", func(p *sim.Proc) {
			sess := s.Open(p).BindCtx()
			for i := 0; i < 20; i++ {
				tx := sess.Begin()
				nid := sess.Ctx.RNG.Int64n(acct.NominalRows())
				actual := acct.ToActual(nid)
				key := btree.Key{acct.Get(actual, 0)}
				if _, ok := sess.Read(tx, pk, key, nid); !ok {
					t.Errorf("read miss for key %v", key)
				}
				sess.Update(tx, pk, key, nid, func(w *RowWriter) {
					w.Add(1, 5)
				})
				sess.Insert(tx, hist, []int64{hist.NominalRows(), nid, 5}, []*access.BTIndex{hpk}, nil)
				sess.Commit(tx)
			}
			done++
		})
	}
	s.Sim.Run(sim.Time(60 * sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(120 * sim.Second))
	if done != users {
		t.Fatalf("finished %d/%d users", done, users)
	}
	if s.Ctr.TxnCommits != users*20 {
		t.Fatalf("commits = %d", s.Ctr.TxnCommits)
	}
	if s.Ctr.SSDWriteBytes == 0 {
		t.Fatal("no log writes")
	}
	if s.Ctr.Instructions == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestServerAnalyticalQuery(t *testing.T) {
	s := NewServer(Config{Seed: 4})
	db := testDB()
	csi := db.AddCSI(db.Table("account"))
	_ = csi
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	acct := db.Table("account")
	q := &opt.LNode{
		Kind: opt.LAgg,
		Left: &opt.LNode{
			Kind: opt.LScan,
			Heap: access.Heap{T: acct},
			CSI:  db.CSIOf(acct),
			Proj: []int{1},
			Name: "account",
		},
		Aggs:    []exec.AggSpec{{Kind: exec.AggSum, Col: 0}, {Kind: exec.AggCount}},
		NGroups: 1,
	}
	var res QueryResult
	s.Sim.Spawn("analyst", func(p *sim.Proc) {
		res = s.runQuery(p, q, 0, 0)
	})
	s.Sim.Run(sim.Time(60 * sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(120 * sim.Second))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// 500 actual rows * K=10 weight * 1000 balance.
	if res.Rows[0][0] != 500*10*1000 || res.Rows[0][1] != 5000 {
		t.Fatalf("agg = %v", res.Rows[0])
	}
	if s.Ctr.QueriesDone != 1 {
		t.Fatalf("queries done = %d", s.Ctr.QueriesDone)
	}
}

func TestEffectiveDopRespectsGovernor(t *testing.T) {
	s := NewServer(Config{Seed: 5, MaxDOP: 8})
	s.CPUs.AllowN(4)
	if d := s.EffectiveDop(0); d != 4 {
		t.Fatalf("dop = %d, want 4 (cpuset)", d)
	}
	s.CPUs.AllowN(32)
	if d := s.EffectiveDop(0); d != 8 {
		t.Fatalf("dop = %d, want 8 (MAXDOP)", d)
	}
	if d := s.EffectiveDop(2); d != 2 {
		t.Fatalf("dop = %d, want 2 (hint)", d)
	}
}

func TestTable2StyleSizes(t *testing.T) {
	db := testDB()
	if db.DataBytes() <= 0 || db.IndexBytes() <= 0 {
		t.Fatal("sizes not positive")
	}
	if db.TotalBytes() != db.DataBytes()+db.IndexBytes() {
		t.Fatal("total mismatch")
	}
}

func TestWorkspaceSemaphoreQueuesGrants(t *testing.T) {
	s := NewServer(Config{Seed: 9})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	acct := db.Table("account")
	// A query whose grant demand is large: grant requests serialize when
	// concurrent queries exceed the workspace.
	mkQuery := func() *opt.LNode {
		return &opt.LNode{
			Kind: opt.LAgg,
			Left: &opt.LNode{
				Kind: opt.LScan, Heap: access.Heap{T: acct},
				Proj: []int{0, 1}, Name: "account",
			},
			Groups:  []int{0},
			Aggs:    []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
			NGroups: 1e12, // force the grant to the per-query cap
		}
	}
	// Shrink workspace so the three 1MB-floor grants cannot coexist.
	s.workspace = 2 << 20
	s.Cfg.GrantFrac = 0.75
	done := 0
	for i := 0; i < 3; i++ {
		s.Sim.Spawn("q", func(p *sim.Proc) {
			s.runQuery(p, mkQuery(), 0, 0.75)
			done++
		})
	}
	s.Sim.Run(sim.Time(600 * sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(1200 * sim.Second))
	if done != 3 {
		t.Fatalf("queries done = %d", done)
	}
	if s.Ctr.WaitNs[metrics.WaitResourceSem] == 0 {
		t.Fatal("no RESOURCE_SEMAPHORE waits despite over-committed workspace")
	}
}

func TestHugeGrantClampedAndCompletes(t *testing.T) {
	s := NewServer(Config{Seed: 12})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	acct := db.Table("account")
	q := &opt.LNode{
		Kind: opt.LAgg,
		Left: &opt.LNode{
			Kind: opt.LScan, Heap: access.Heap{T: acct},
			Proj: []int{0, 1}, Name: "account",
		},
		Groups:  []int{0},
		Aggs:    []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
		NGroups: 1e12, // grant demand hits the per-query cap
	}
	// A grant fraction > 1 requests more than the whole workspace; the
	// request used to be unsatisfiable and the session waited forever.
	s.workspace = 1 << 20
	done := false
	s.Sim.Spawn("q", func(p *sim.Proc) {
		s.runQuery(p, q, 0, 4.0)
		done = true
	})
	s.Sim.Run(sim.Time(600 * sim.Second))
	if !done {
		t.Fatal("huge-grant query did not complete (grant not clamped to workspace)")
	}
	if s.workspaceUse != 0 {
		t.Fatalf("workspaceUse = %d after release, want 0", s.workspaceUse)
	}
	s.Stop()
	s.Sim.Run(sim.Time(1200 * sim.Second))
}

func TestGrantWaiterAbandonedOnStopDoesNotCharge(t *testing.T) {
	s := NewServer(Config{Seed: 13})
	s.workspace = 1 << 20
	holder := int64(-1)
	waiter := int64(-1)
	s.Sim.Spawn("holder", func(p *sim.Proc) {
		holder, _ = s.acquireWorkspace(p, 1<<20, sim.Forever) // takes the whole workspace
	})
	s.Sim.Spawn("waiter", func(p *sim.Proc) {
		waiter, _ = s.acquireWorkspace(p, 1<<19, sim.Forever) // must park
	})
	s.Sim.Run(sim.Time(1 * sim.Second))
	if holder != 1<<20 {
		t.Fatalf("holder granted %d, want %d", holder, int64(1<<20))
	}
	if waiter != -1 {
		t.Fatalf("waiter returned %d while workspace was full", waiter)
	}
	s.Stop() // wakes the waiter; capacity still unavailable
	s.Sim.Run(sim.Time(2 * sim.Second))
	if waiter != 0 {
		t.Fatalf("abandoned waiter returned %d, want 0", waiter)
	}
	if s.workspaceUse != 1<<20 {
		t.Fatalf("workspaceUse = %d, want %d (only the holder's grant)", s.workspaceUse, int64(1<<20))
	}
}

// bigGrantQuery builds a grouped aggregation whose grant demand hits the
// per-query cap, for grant-pressure tests.
func bigGrantQuery(db *Database) *opt.LNode {
	acct := db.Table("account")
	return &opt.LNode{
		Kind: opt.LAgg,
		Left: &opt.LNode{
			Kind: opt.LScan, Heap: access.Heap{T: acct},
			Proj: []int{0, 1}, Name: "account",
		},
		Groups:  []int{0},
		Aggs:    []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
		NGroups: 1e12,
	}
}

func TestRunQueryCanceledAtShutdown(t *testing.T) {
	s := NewServer(Config{Seed: 21})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	s.workspace = 1 << 20
	s.Sim.Spawn("holder", func(p *sim.Proc) {
		s.acquireWorkspace(p, 1<<20, sim.Forever) // takes the whole workspace, never releases
	})
	var res QueryResult
	returned := false
	s.Sim.Spawn("q", func(p *sim.Proc) {
		res = s.runQuery(p, bigGrantQuery(db), 0, 0.75)
		returned = true
	})
	s.Sim.Run(sim.Time(sim.Second))
	if returned {
		t.Fatal("query returned while the workspace was full")
	}
	s.Stop()
	s.Sim.Run(sim.Time(2 * sim.Second))
	if !returned {
		t.Fatal("query still parked after Stop")
	}
	if res.Err == nil || res.Err.Kind != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", res.Err)
	}
	if res.Rows != nil {
		t.Fatalf("canceled query produced %d rows", len(res.Rows))
	}
	if res.Err.Retryable() {
		t.Fatal("shutdown cancellation must not be retryable")
	}
	if s.Ctr.QueriesCanceled != 1 || s.Ctr.QueriesDone != 0 {
		t.Fatalf("canceled=%d done=%d", s.Ctr.QueriesCanceled, s.Ctr.QueriesDone)
	}
	if s.workspaceUse != 1<<20 {
		t.Fatalf("workspaceUse = %d, want only the holder's grant", s.workspaceUse)
	}
}

func TestDeadlineDegradesGrantThenSucceeds(t *testing.T) {
	s := NewServer(Config{Seed: 22, StmtTimeout: 4 * sim.Second})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	// The holder owns the whole workspace past the half-deadline (2s), so
	// the query degrades; it releases before the full deadline (4s), so the
	// degraded plan's grant is satisfied and the query completes.
	s.workspace = 1 << 20
	s.Sim.Spawn("holder", func(p *sim.Proc) {
		got, _ := s.acquireWorkspace(p, 1<<20, sim.Forever)
		p.Sleep(3 * sim.Second)
		s.releaseWorkspace(got)
	})
	var res QueryResult
	s.Sim.Spawn("q", func(p *sim.Proc) {
		res = s.runQuery(p, bigGrantQuery(db), 0, 0.75)
	})
	s.Sim.Run(sim.Time(60 * sim.Second))
	if res.Err != nil {
		t.Fatalf("degraded query failed: %v", res.Err)
	}
	if s.Ctr.DegradedPlans != 1 {
		t.Fatalf("DegradedPlans = %d, want 1", s.Ctr.DegradedPlans)
	}
	if s.Ctr.DeadlineKills != 0 || s.Ctr.QueriesDone != 1 {
		t.Fatalf("kills=%d done=%d", s.Ctr.DeadlineKills, s.Ctr.QueriesDone)
	}
	s.Stop()
	s.Sim.Run(sim.Time(120 * sim.Second))
}

func TestDeadlineKillsStarvedGrant(t *testing.T) {
	s := NewServer(Config{Seed: 23, StmtTimeout: 2 * sim.Second})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	s.workspace = 1 << 20
	s.Sim.Spawn("holder", func(p *sim.Proc) {
		s.acquireWorkspace(p, 1<<20, sim.Forever)
	})
	var res QueryResult
	s.Sim.Spawn("q", func(p *sim.Proc) {
		res = s.runQuery(p, bigGrantQuery(db), 0, 0.75)
	})
	s.Sim.Run(sim.Time(60 * sim.Second))
	if res.Err == nil || res.Err.Kind != ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", res.Err)
	}
	if !res.Err.Retryable() {
		t.Fatal("deadline expiry should be retryable")
	}
	// The kill path must still have tried the degraded plan first.
	if s.Ctr.DegradedPlans != 1 || s.Ctr.DeadlineKills != 1 || s.Ctr.QueriesFailed != 1 {
		t.Fatalf("degraded=%d kills=%d failed=%d",
			s.Ctr.DegradedPlans, s.Ctr.DeadlineKills, s.Ctr.QueriesFailed)
	}
	if res.Elapsed < 2*sim.Second {
		t.Fatalf("killed after %v, before the 2s deadline", res.Elapsed)
	}
	s.Stop()
	s.Sim.Run(sim.Time(120 * sim.Second))
}

func TestDeadlineKillsExecution(t *testing.T) {
	// The deadline is far too short for the scan, but long enough that the
	// (instant) grant acquisition succeeds: the kill must come from the
	// executor's node/partition checks.
	s := NewServer(Config{Seed: 24, StmtTimeout: sim.Microsecond})
	db := testDB()
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	var res QueryResult
	s.Sim.Spawn("q", func(p *sim.Proc) {
		res = s.runQuery(p, bigGrantQuery(db), 0, 0)
	})
	s.Sim.Run(sim.Time(60 * sim.Second))
	if res.Err == nil || res.Err.Kind != ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", res.Err)
	}
	if !res.Stats.Killed {
		t.Fatal("stats not marked killed")
	}
	if res.Rows != nil {
		t.Fatalf("killed query produced %d rows", len(res.Rows))
	}
	if s.Ctr.DeadlineKills != 1 || s.Ctr.QueriesDone != 0 {
		t.Fatalf("kills=%d done=%d", s.Ctr.DeadlineKills, s.Ctr.QueriesDone)
	}
	if s.workspaceUse != 0 {
		t.Fatalf("workspaceUse = %d after kill, want 0 (grant released)", s.workspaceUse)
	}
	s.Stop()
	s.Sim.Run(sim.Time(120 * sim.Second))
}

func TestPickCoreEmptyCpusetFallsBack(t *testing.T) {
	s := NewServer(Config{Seed: 25})
	s.CPUs = &cgroup.CPUSet{} // no allowed cores
	if c := s.PickCore(); c != 0 {
		t.Fatalf("core = %d, want fallback 0", c)
	}
	if s.Ctr.CpusetFallbacks != 1 {
		t.Fatalf("CpusetFallbacks = %d, want 1", s.Ctr.CpusetFallbacks)
	}
}

func TestFaultReserveStarvesAndReleasesGrants(t *testing.T) {
	s := NewServer(Config{Seed: 26})
	s.workspace = 1 << 20
	s.SetFaultReserve(1 << 20) // whole workspace reserved away
	granted := int64(-1)
	s.Sim.Spawn("q", func(p *sim.Proc) {
		granted, _ = s.acquireWorkspace(p, 1<<19, sim.Forever)
	})
	s.Sim.Run(sim.Time(sim.Second))
	if granted != -1 {
		t.Fatalf("grant returned %d while reserve held the workspace", granted)
	}
	s.SetFaultReserve(0) // clearing the reserve wakes the waiter
	s.Sim.Run(sim.Time(2 * sim.Second))
	if granted != 1<<19 {
		t.Fatalf("granted = %d after reserve cleared, want %d", granted, int64(1<<19))
	}
}
