package engine

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sim"
)

func analyticalQ(db *Database) *opt.LNode {
	acct := db.Table("account")
	return &opt.LNode{
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
		Label:   "test.sum",
	}
}

// runOnFreshServer boots a same-seed server and runs fn as the only
// query-issuing proc, returning the result and final counters.
func runOnFreshServer(t *testing.T, fn func(s *Server, p *sim.Proc) QueryResult) (QueryResult, metrics.Counters) {
	t.Helper()
	s := NewServer(Config{Seed: 77})
	db := testDB()
	db.AddCSI(db.Table("account"))
	s.AttachDB(db)
	s.WarmBufferPool()
	s.Start()
	var res QueryResult
	s.Sim.Spawn("probe", func(p *sim.Proc) {
		res = fn(s, p)
	})
	s.Sim.Run(sim.Time(60 * sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(120 * sim.Second))
	return res, *s.Ctr
}

// TestSessionQueryMatchesDirectRunQuery is the API-redesign differential
// gate: a query issued through the Session front door must be
// bit-identical — rows, stats, elapsed time, and engine counters — to
// the same query issued through the internal runQuery path on a
// same-seed server.
func TestSessionQueryMatchesDirectRunQuery(t *testing.T) {
	direct, dctr := runOnFreshServer(t, func(s *Server, p *sim.Proc) QueryResult {
		return s.runQuery(p, analyticalQ(s.DB), 0, 0)
	})
	viaSess, sctr := runOnFreshServer(t, func(s *Server, p *sim.Proc) QueryResult {
		sess := s.Open(p)
		defer sess.Close()
		return sess.Query(analyticalQ(s.DB), QueryOptions{})
	})
	if !reflect.DeepEqual(direct.Rows, viaSess.Rows) {
		t.Fatalf("rows differ: %v vs %v", direct.Rows, viaSess.Rows)
	}
	if direct.Elapsed != viaSess.Elapsed {
		t.Fatalf("elapsed differ: %v vs %v", direct.Elapsed, viaSess.Elapsed)
	}
	if !reflect.DeepEqual(direct.Stats, viaSess.Stats) {
		t.Fatalf("stats differ: %+v vs %+v", direct.Stats, viaSess.Stats)
	}
	if !reflect.DeepEqual(dctr, sctr) {
		t.Fatalf("engine counters differ:\ndirect:  %+v\nsession: %+v", dctr, sctr)
	}
}

// TestSessionQueryHintsMatchDirect repeats the differential with DOP and
// grant hints, the QueryTiming path.
func TestSessionQueryHintsMatchDirect(t *testing.T) {
	direct, dctr := runOnFreshServer(t, func(s *Server, p *sim.Proc) QueryResult {
		return s.runQuery(p, analyticalQ(s.DB), 2, 0.1)
	})
	viaSess, sctr := runOnFreshServer(t, func(s *Server, p *sim.Proc) QueryResult {
		sess := s.Open(p)
		defer sess.Close()
		return sess.Query(analyticalQ(s.DB), QueryOptions{MaxDOP: 2, GrantPct: 0.1})
	})
	if !reflect.DeepEqual(direct.Rows, viaSess.Rows) || direct.Elapsed != viaSess.Elapsed {
		t.Fatalf("hinted query differs: %v/%v vs %v/%v",
			direct.Rows, direct.Elapsed, viaSess.Rows, viaSess.Elapsed)
	}
	if !reflect.DeepEqual(dctr, sctr) {
		t.Fatalf("engine counters differ under hints")
	}
}

// TestOpenDrawsNoRandomness pins the property every fork-order-sensitive
// driver relies on: Open is RNG-free, and only BindCtx forks the root
// stream.
func TestOpenDrawsNoRandomness(t *testing.T) {
	s := NewServer(Config{Seed: 9})
	db := testDB()
	s.AttachDB(db)
	s.Start()
	var probe uint64
	s.Sim.Spawn("probe", func(p *sim.Proc) {
		sess := s.Open(p)
		defer sess.Close()
		probe = s.Sim.RNG().Fork().Uint64()
	})
	s.Sim.Run(sim.Time(sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(2 * sim.Second))

	s2 := NewServer(Config{Seed: 9})
	db2 := testDB()
	s2.AttachDB(db2)
	s2.Start()
	var probe2 uint64
	s2.Sim.Spawn("probe", func(p *sim.Proc) {
		probe2 = s2.Sim.RNG().Fork().Uint64()
	})
	s2.Sim.Run(sim.Time(sim.Second))
	s2.Stop()
	s2.Sim.Run(sim.Time(2 * sim.Second))

	if probe != probe2 {
		t.Fatalf("Open perturbed the root RNG stream: %d vs %d", probe, probe2)
	}
}

// TestSessionCountsOpenClose checks the session telemetry counters.
func TestSessionCountsOpenClose(t *testing.T) {
	s := NewServer(Config{Seed: 3})
	db := testDB()
	s.AttachDB(db)
	s.Start()
	s.Sim.Spawn("probe", func(p *sim.Proc) {
		a := s.Open(p)
		b := s.Open(p)
		if s.sessActive != 2 || s.sessOpened != 2 {
			t.Errorf("active=%d opened=%d", s.sessActive, s.sessOpened)
		}
		a.Close()
		a.Close() // idempotent
		b.Close()
		if s.sessActive != 0 || s.sessOpened != 2 {
			t.Errorf("after close: active=%d opened=%d", s.sessActive, s.sessOpened)
		}
	})
	s.Sim.Run(sim.Time(sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(2 * sim.Second))
}

// TestExecReusesSessionCounters pins Exec's bookkeeping: each attempt
// charges a zeroed counter set, the fold into the query statistics is
// cumulative, the proc's previous attribution comes back, and none of it
// allocates.
func TestExecReusesSessionCounters(t *testing.T) {
	s := NewServer(Config{Seed: 3})
	s.AttachDB(testDB())
	s.Start()
	s.Sim.Spawn("probe", func(p *sim.Proc) {
		sess := s.Open(p)
		defer sess.Close()
		charge := func() bool {
			stmt := metrics.StmtOf(p)
			stmt.AddWait(metrics.WaitLock, 7)
			stmt.BufferHits++
			return true
		}
		sess.Exec("t.Charge", nil, charge)
		sess.Exec("t.Charge", nil, charge)
		rows := s.QStats.Snapshot()
		if len(rows) != 1 || rows[0].Query != "t.Charge" || rows[0].Executions != 2 ||
			rows[0].WaitNs[metrics.WaitLock] != 14 || rows[0].Counters.WaitNs[metrics.WaitLock] != 14 ||
			rows[0].Counters.BufferHits != 2 {
			t.Errorf("two attempts of 7 ns + 1 hit folded as %+v", rows)
		}
		if p.Attr() != nil {
			t.Errorf("Exec left %v attached to the proc", p.Attr())
		}
		empty := func() bool { return true }
		if avg := testing.AllocsPerRun(100, func() { sess.Exec("t.Empty", nil, empty) }); avg != 0 {
			t.Errorf("Exec of an empty transaction allocates %v objects, want 0", avg)
		}
	})
	s.Sim.Run(sim.Time(sim.Second))
	s.Stop()
	s.Sim.Run(sim.Time(2 * sim.Second))
}
