package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// benchTable builds an (okey, ckey, amount) table with `rows` actual
// rows at K=5, large enough that executor per-row work dominates setup.
func benchTable(te *testEnv, rows int64) *storage.Table {
	sch := storage.NewSchema("bench_orders",
		storage.Column{Name: "okey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ckey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "amount", Type: storage.TInt, Width: 8},
	)
	t := storage.NewTable(1, sch, 5)
	for i := int64(0); i < rows; i++ {
		t.AppendLoad([]int64{i, i % 97, (i * 13) % 1000})
	}
	t.Data.Region = te.env.M.ReserveRegion(t.NominalDataBytes())
	te.env.BP.Register(t.Data)
	return t
}

// benchPlan is the headline scan→filter→hash-agg shape: the pattern the
// vectorized engine is built for.
func benchPlan(tab *storage.Table) *Node {
	return &Node{
		Kind:   KHashAgg,
		Left:   scanNode(tab, []int{1, 2}, func(r Row) bool { return r[1] < 400 }, 1, true),
		Groups: []int{0},
		Aggs:   []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}},
		Weight: tab.K, Parallel: true,
	}
}

const benchRows = 20_000

// runBench executes the plan once and returns the simulated elapsed
// time, which is deterministic across runs and machines.
func runBench(te *testEnv, engine engineFn, root *Node) (simNs float64, outRows int) {
	var rows []Row
	var done, start = te.sm.Now(), te.sm.Now()
	te.sm.Spawn("q", func(p *sim.Proc) {
		rows, _ = engine(p, te.env, root)
		done = te.sm.Now()
	})
	te.sm.Run(start + sim.Time(3600*sim.Second))
	return float64(done - start), len(rows)
}

// BenchmarkExecEngines compares the row-at-a-time oracle and the batch
// engine on the same plan. ns/op and B/op are wall-clock
// (machine-dependent); sim_ms is the simulated query latency and is
// fully deterministic.
func BenchmarkExecEngines(b *testing.B) {
	for _, eng := range []struct {
		name string
		run  engineFn
	}{{"row", runRowEngine}, {"vec", Run}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			var simMs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				te := newTestEnv(4)
				root := benchPlan(benchTable(te, benchRows))
				b.StartTimer()
				ns, n := runBench(te, eng.run, root)
				if n == 0 {
					b.Fatal("no output rows")
				}
				simMs = ns / 1e6
			}
			b.ReportMetric(simMs, "sim_ms")
		})
	}
}

// BenchmarkVectorizedSpeedup reports the headline trajectory metrics:
// alloc_reduction_x (deterministic, gated in CI) and vec_speedup_wall
// (wall-clock, informational only).
func BenchmarkVectorizedSpeedup(b *testing.B) {
	measure := func(engine engineFn) (wallNs float64, allocs uint64) {
		te := newTestEnv(4)
		root := benchPlan(benchTable(te, benchRows))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if _, n := runBench(te, engine, root); n == 0 {
			b.Fatal("no output rows")
		}
		wallNs = float64(time.Since(t0))
		runtime.ReadMemStats(&after)
		return wallNs, after.Mallocs - before.Mallocs
	}
	var speedup, allocRatio float64
	for i := 0; i < b.N; i++ {
		rowWall, rowAllocs := measure(runRowEngine)
		vecWall, vecAllocs := measure(Run)
		speedup = rowWall / vecWall
		allocRatio = float64(rowAllocs) / float64(vecAllocs)
	}
	b.ReportMetric(speedup, "vec_speedup_wall")
	b.ReportMetric(allocRatio, "alloc_reduction_x")
	b.ReportMetric(0, "ns/op") // the per-engine times are what matter
}

// benchDim builds a (dkey, attr) dimension table with unique keys.
func benchDim(te *testEnv, rows int64) *storage.Table {
	sch := storage.NewSchema("bench_dim",
		storage.Column{Name: "dkey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "attr", Type: storage.TInt, Width: 8},
	)
	t := storage.NewTable(2, sch, 1)
	for i := int64(0); i < rows; i++ {
		t.AppendLoad([]int64{i, i % 11})
	}
	t.Data.Region = te.env.M.ReserveRegion(t.NominalDataBytes())
	te.env.BP.Register(t.Data)
	return t
}

// BenchmarkHashJoinBuildProbe runs an inner hash join at DOP 4 and at
// DOP 32, the MAXDOP tpch_power runs at: a 4 096-row dimension builds
// the table and benchRows fact rows probe it, each matching one build
// row.
func BenchmarkHashJoinBuildProbe(b *testing.B) {
	for _, dop := range []int{4, 32} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				te := newTestEnv(dop)
				fact := benchTable(te, benchRows)
				root := &Node{
					Kind:      KHashJoin,
					Left:      scanNode(benchDim(te, 4096), []int{0, 1}, nil, 0, true),
					Right:     scanNode(fact, []int{0, 1, 2}, nil, 0, true),
					BuildKeys: []int{0}, ProbeKeys: []int{1},
					JoinType: InnerJoin, Weight: fact.K, Parallel: true,
				}
				b.StartTimer()
				if _, n := runBench(te, Run, root); n != benchRows {
					b.Fatalf("join rows = %d, want %d", n, benchRows)
				}
			}
		})
	}
}

// benchGroups builds a (g0..g4, amount) table of rows rows whose group
// columns take 1 000 distinct combinations: g0 alone is 1 000-valued,
// and (g1, g2, g3) with g4 a function of them spell the same groups.
func benchGroups(te *testEnv, rows int64) *storage.Table {
	cols := make([]storage.Column, 0, 6)
	for _, name := range []string{"g0", "g1", "g2", "g3", "g4", "amount"} {
		cols = append(cols, storage.Column{Name: name, Type: storage.TInt, Width: 8})
	}
	t := storage.NewTable(3, storage.NewSchema("bench_groups", cols...), 1)
	for i := int64(0); i < rows; i++ {
		k := (i * 7919) % 1000
		t.AppendLoad([]int64{k, k % 10, k / 10 % 10, k / 100, k % 7, i % 1000})
	}
	t.Data.Region = te.env.M.ReserveRegion(t.NominalDataBytes())
	te.env.BP.Register(t.Data)
	return t
}

// BenchmarkHashAgg runs a parallel scan → hash aggregate at DOP 4 over
// 100 000 rows into 1 000 groups, keyed by one column (inline) and by
// five (wide5).
func BenchmarkHashAgg(b *testing.B) {
	for _, c := range []struct {
		name   string
		groups []int
	}{{"inline", []int{0}}, {"wide5", []int{0, 1, 2, 3, 4}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				te := newTestEnv(4)
				tab := benchGroups(te, 100_000)
				root := &Node{
					Kind:   KHashAgg,
					Left:   scanNode(tab, []int{0, 1, 2, 3, 4, 5}, nil, 0, true),
					Groups: c.groups,
					Aggs:   []AggSpec{{Kind: AggSum, Col: 5}, {Kind: AggCount}, {Kind: AggMax, Col: 5}},
					Weight: tab.K, Parallel: true,
				}
				b.StartTimer()
				if _, n := runBench(te, Run, root); n != 1000 {
					b.Fatalf("groups = %d, want 1000", n)
				}
			}
		})
	}
}

// BenchmarkColScanFiltered runs a filtered columnstore scan at DOP 4
// over 64 segments of 1 024 rows: a predicate on two columns keeps about
// a third of the rows and the scan projects two others.
func BenchmarkColScanFiltered(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		te := newTestEnv(4)
		_, csi := te.csiTable(64*1024, 1024, []int{0, 1, 2, 3, 4, 5}, func(r, c int) int64 { return int64(r * (c + 1) % 97) })
		root := &Node{
			Kind: KColScan, CSI: csi, Proj: []int{0, 3},
			Pred: func(r Row) bool { return r[1] < 64 && r[2]%3 != 0 }, NPred: 2, PredCols: []int{1, 2},
			Weight: csi.Ix.Table.K, Parallel: true, Name: "csi",
		}
		b.StartTimer()
		if _, n := runBench(te, Run, root); n == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkSort runs a parallel scan → sort at DOP 4 over 100 000 rows
// on two keys with many ties (10 × 1 000 distinct pairs).
func BenchmarkSort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		te := newTestEnv(4)
		tab := benchGroups(te, 100_000)
		root := &Node{
			Kind:   KSort,
			Left:   scanNode(tab, []int{1, 5, 0}, nil, 0, true),
			Keys:   []SortKey{{Col: 0}, {Col: 1, Desc: true}},
			Weight: tab.K, Parallel: true,
		}
		b.StartTimer()
		if _, n := runBench(te, Run, root); n != 100_000 {
			b.Fatalf("rows = %d, want 100000", n)
		}
	}
}

// TestSortResultRowsFromOneSlab pins BenchmarkSort's allocations: Run's
// 100 000 result rows are cut from one slab, so the whole query allocates
// fewer than 1 000 objects (one per row before). An append to one row
// must not reach the next.
func TestSortResultRowsFromOneSlab(t *testing.T) {
	te := newTestEnv(4)
	tab := benchGroups(te, 100_000)
	root := &Node{
		Kind:   KSort,
		Left:   scanNode(tab, []int{1, 5, 0}, nil, 0, true),
		Keys:   []SortKey{{Col: 0}, {Col: 1, Desc: true}},
		Weight: tab.K, Parallel: true,
	}
	var rows []Row
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	te.sm.Spawn("q", func(p *sim.Proc) { rows, _ = Run(p, te.env, root) })
	te.sm.Run(te.sm.Now() + sim.Time(3600*sim.Second))
	runtime.ReadMemStats(&after)
	if len(rows) != 100_000 {
		t.Fatalf("rows = %d, want 100000", len(rows))
	}
	if n := after.Mallocs - before.Mallocs; n >= 1000 {
		t.Errorf("sort of 100 000 rows made %d allocations, want < 1000", n)
	}
	next := rows[1][0]
	if grown := append(rows[0], -1); len(grown) != 4 || rows[1][0] != next {
		t.Fatalf("append to row 0 overwrote row 1: %v, %v", grown, rows[1])
	}
}
