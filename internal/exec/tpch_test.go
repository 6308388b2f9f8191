package exec_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/workload/tpch"
)

// TestVectorizedDoesNotPerturbResults plans each of the 22 TPC-H queries
// with the server's optimizer and executes the plan once on the row-engine
// oracle and once on Run, each over a freshly built database, requiring
// bit-identical result rows. This is the end-to-end half of the
// differential gate; the operator-level half is
// TestVectorizedMatchesRowEngine.
func TestVectorizedDoesNotPerturbResults(t *testing.T) {
	run := func(qn int, engineRun func(*sim.Proc, *exec.Env, *exec.Node) ([]exec.Row, exec.QueryStats)) []exec.Row {
		d := tpch.Build(tpch.Config{SF: 1, ActualLineitemPerSF: 3000, Seed: int64(qn)})
		srv := engine.NewServer(engine.Config{Seed: int64(qn)})
		srv.AttachDB(d.DB)
		srv.WarmBufferPool()
		srv.Start()
		plan, info := srv.ExplainQuery(d.Query(qn, sim.NewRNG(13)), 0)
		env := &exec.Env{
			Sim: srv.Sim, M: srv.M, BP: srv.BP, Dev: srv.Dev, Ctr: srv.Ctr,
			Cost: srv.Cost, RNG: srv.Sim.RNG().Fork(),
			Cores: srv.CPUs.Allowed(), Dop: info.Dop,
			Grant:      &exec.Grant{Bytes: info.GrantBytes},
			TempRegion: srv.M.ReserveRegion(8 << 30),
			MetaBase:   srv.M.ReserveRegion(srv.Cost.MetaBytes + 1<<20),
		}
		var rows []exec.Row
		srv.Sim.Spawn("q", func(p *sim.Proc) {
			rows, _ = engineRun(p, env, plan)
		})
		srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
		srv.Stop()
		return rows
	}
	nonEmpty := 0
	for qn := 1; qn <= tpch.NumQueries; qn++ {
		rowRes := run(qn, exec.RunRowEngine)
		vecRes := run(qn, exec.Run)
		if len(rowRes) == 0 && len(vecRes) == 0 {
			continue
		}
		nonEmpty++
		if !reflect.DeepEqual(rowRes, vecRes) {
			limit := func(r []exec.Row) []exec.Row {
				if len(r) > 5 {
					return r[:5]
				}
				return r
			}
			t.Errorf("Q%d: row engine %d rows, batch engine %d rows\nrow: %v\nvec: %v",
				qn, len(rowRes), len(vecRes), limit(rowRes), limit(vecRes))
		}
	}
	// Two empty results also compare equal, so without a floor on the
	// non-empty ones a too-small database would pass by comparing nothing.
	if nonEmpty < 18 {
		t.Errorf("%d of %d queries returned rows; want at least 18 non-empty comparisons", nonEmpty, tpch.NumQueries)
	}
	t.Logf("%d of %d queries compared non-empty results", nonEmpty, tpch.NumQueries)
}
