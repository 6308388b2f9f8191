package harness

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
	"repro/internal/workload/htap"
	"repro/internal/workload/tpce"
	"repro/internal/workload/tpch"
)

// TestPlannerMenuIsWhatItOrders plans every analytical statement in the
// catalogue — TPC-H Q1–22, the HTAP analytical queries, asdb.SumBig —
// over a small SF × DOP × grant grid and requires the set of operator
// kinds the optimizer emits to equal the set exec declares: a physical
// operator no statement is ever planned with is dead weight in both
// executors, and a kind exec cannot name is one it cannot run.
func TestPlannerMenuIsWhatItOrders(t *testing.T) {
	o := TestOptions()
	o.Density = 20
	seen := map[exec.NodeKind]bool{}
	var walk func(n *exec.Node)
	walk = func(n *exec.Node) {
		seen[n.Kind] = true
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	// planGrid plans statements 0..n-1 of one database at every grid point.
	planGrid := func(db *engine.Database, n int, stmt func(i int, g *sim.RNG) *opt.LNode) {
		srv := newServer(o, Knobs{})
		srv.AttachDB(db)
		defer srv.Stop()
		for _, grant := range []float64{0.25, 0.02} {
			srv.Cfg.GrantFrac = grant
			for _, dop := range []int{1, 32} {
				g := sim.NewRNG(o.Seed)
				for i := 0; i < n; i++ {
					plan, _ := srv.ExplainQuery(stmt(i, g), dop)
					walk(plan)
				}
			}
		}
	}

	// SF 1 and SF 300 are the two sides of Figure 7: Q20 seeks a warm
	// index at any DOP on the first, and flips from hash join to nested
	// loops only at high DOP on the second.
	for _, sf := range []int{1, 300} {
		d := tpch.Build(tpchConfig(sf, o))
		planGrid(d.DB, tpch.NumQueries, func(i int, g *sim.RNG) *opt.LNode { return d.Query(i+1, g) })
	}
	hd := htap.Build(htapConfig(300, o))
	planGrid(hd.DB, tpce.NumAnalytical, hd.AnalyticalQuery)
	ad := asdb.Build(asdbConfig(5, o))
	planGrid(ad.DB, 1, func(int, *sim.RNG) *opt.LNode { return ad.SumBig(0.3) })

	unnamed := func(k exec.NodeKind) bool { return strings.HasPrefix(k.String(), "Op(") }
	for k := exec.NodeKind(0); !unnamed(k); k++ {
		if !seen[k] {
			t.Errorf("%v is on the menu but no statement at any grid point is planned with it", k)
		}
	}
	for k := range seen {
		if unnamed(k) {
			t.Errorf("optimizer emitted %v, a kind exec does not declare", k)
		}
	}
}
