package exec

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/colstore"
	"repro/internal/hw"
	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

type testEnv struct {
	sm  *sim.Sim
	env *Env
	ctr *metrics.Counters
}

func newTestEnv(cores int) *testEnv {
	sm := sim.New(42)
	ctr := &metrics.Counters{}
	m := hw.New(sm, hw.PaperSpec(), ctr)
	dev := iodev.New(iodev.PaperSSD(), ctr)
	bp := buffer.New(sm, dev, ctr, 1<<30)
	ids := make([]int, cores)
	for i := range ids {
		ids[i] = i
	}
	return &testEnv{
		sm:  sm,
		ctr: ctr,
		env: &Env{
			Sim: sm, M: m, BP: bp, Dev: dev, Ctr: ctr,
			Cost: access.DefaultCost(), RNG: sim.NewRNG(7),
			Cores: ids, Dop: cores,
			TempRegion: m.ReserveRegion(1 << 30),
		},
	}
}

// ordersTable: (okey, ckey, amount) with K=5; 200 actual rows.
func (te *testEnv) ordersTable() *storage.Table {
	sch := storage.NewSchema("orders",
		storage.Column{Name: "okey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ckey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "amount", Type: storage.TInt, Width: 8},
	)
	t := storage.NewTable(1, sch, 5)
	for i := int64(0); i < 200; i++ {
		t.AppendLoad([]int64{i, i % 20, (i * 7) % 100})
	}
	t.Data.Region = te.env.M.ReserveRegion(t.NominalDataBytes())
	te.env.BP.Register(t.Data)
	return t
}

// custTable: (ckey, nation) with K=1; 20 rows.
func (te *testEnv) custTable() *storage.Table {
	sch := storage.NewSchema("customer",
		storage.Column{Name: "ckey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "nation", Type: storage.TInt, Width: 8},
	)
	t := storage.NewTable(2, sch, 1)
	for i := int64(0); i < 20; i++ {
		t.AppendLoad([]int64{i, i % 5})
	}
	t.Data.Region = te.env.M.ReserveRegion(t.NominalDataBytes())
	te.env.BP.Register(t.Data)
	return t
}

// engineFn is the shape Run and the runRowEngine oracle share.
type engineFn func(p *sim.Proc, env *Env, root *Node) ([]Row, QueryStats)

// run executes the plan on the engine that ships.
func (te *testEnv) run(root *Node) ([]Row, QueryStats) {
	return te.runOn(Run, root)
}

func (te *testEnv) runOn(engine engineFn, root *Node) ([]Row, QueryStats) {
	var rows []Row
	var st QueryStats
	te.sm.Spawn("q", func(p *sim.Proc) {
		rows, st = engine(p, te.env, root)
	})
	te.sm.Run(te.sm.Now() + sim.Time(3600*sim.Second))
	return rows, st
}

func scanNode(t *storage.Table, proj []int, pred Pred, npred int, par bool) *Node {
	return &Node{
		Kind: KRowScan, Heap: access.Heap{T: t}, Proj: proj,
		Pred: pred, NPred: npred, Weight: t.K, Parallel: par, Name: t.Name,
	}
}

func TestRowScanFilterProject(t *testing.T) {
	te := newTestEnv(1)
	tab := te.ordersTable()
	n := scanNode(tab, []int{0, 2}, func(r Row) bool { return r[1] == 3 }, 1, false)
	rows, _ := te.run(n)
	if len(rows) != 10 { // i%20==3 for 200 rows
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 || r[0]%20 != 3 {
			t.Fatalf("bad row %v", r)
		}
	}
	if te.ctr.Instructions == 0 || te.ctr.SSDReadBytes == 0 {
		t.Fatal("scan charged no work")
	}
}

func TestParallelScanSameResult(t *testing.T) {
	serial := func() []Row {
		te := newTestEnv(1)
		rows, _ := te.run(scanNode(te.ordersTable(), []int{0}, nil, 0, false))
		return rows
	}()
	par := func() []Row {
		te := newTestEnv(8)
		rows, _ := te.run(scanNode(te.ordersTable(), []int{0}, nil, 0, true))
		return rows
	}()
	sortRows(serial)
	sortRows(par)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel scan differs: %d vs %d rows", len(serial), len(par))
	}
}

func TestHashJoinMatchesReference(t *testing.T) {
	for _, dop := range []int{1, 4} {
		te := newTestEnv(dop)
		orders := te.ordersTable()
		cust := te.custTable()
		// build = customer (ckey, nation); probe = orders (okey, ckey, amount)
		join := &Node{
			Kind:      KHashJoin,
			Left:      scanNode(cust, []int{0, 1}, nil, 0, dop > 1),
			Right:     scanNode(orders, []int{0, 1, 2}, nil, 0, dop > 1),
			BuildKeys: []int{0}, ProbeKeys: []int{1},
			JoinType: InnerJoin, Weight: orders.K, Parallel: dop > 1,
		}
		rows, _ := te.run(join)
		if len(rows) != 200 {
			t.Fatalf("dop %d: join rows = %d, want 200", dop, len(rows))
		}
		for _, r := range rows {
			// layout: probe(okey,ckey,amount) ++ build(ckey,nation)
			if r[1] != r[3] {
				t.Fatalf("join key mismatch: %v", r)
			}
			if r[4] != r[3]%5 {
				t.Fatalf("wrong nation: %v", r)
			}
		}
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	te := newTestEnv(2)
	orders := te.ordersTable()
	cust := te.custTable()
	// Customers 0..9 only on build side.
	build := scanNode(cust, []int{0}, func(r Row) bool { return r[0] < 10 }, 1, false)
	probe := scanNode(orders, []int{0, 1}, nil, 0, false)
	semi := &Node{Kind: KHashJoin, Left: build, Right: probe,
		BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: SemiJoin, Weight: orders.K}
	rows, _ := te.run(semi)
	if len(rows) != 100 {
		t.Fatalf("semi join rows = %d, want 100", len(rows))
	}
	te2 := newTestEnv(2)
	orders2 := te2.ordersTable()
	cust2 := te2.custTable()
	anti := &Node{Kind: KHashJoin,
		Left:      scanNode(cust2, []int{0}, func(r Row) bool { return r[0] < 10 }, 1, false),
		Right:     scanNode(orders2, []int{0, 1}, nil, 0, false),
		BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: AntiJoin, Weight: orders2.K}
	rows2, _ := te2.run(anti)
	if len(rows2) != 100 {
		t.Fatalf("anti join rows = %d, want 100", len(rows2))
	}
}

func TestNLIndexJoinMatchesHashJoin(t *testing.T) {
	te := newTestEnv(4)
	orders := te.ordersTable()
	cust := te.custTable()
	ix := access.NewBTIndex(100, "pk_customer", cust, []int{0}, true, true)
	ix.File.Region = te.env.M.ReserveRegion(ix.File.Bytes())
	te.env.BP.Register(ix.File)
	nl := &Node{
		Kind:  KNLIndexJoin,
		Left:  scanNode(orders, []int{0, 1, 2}, nil, 0, true),
		Index: ix, OuterKeys: []int{1}, InnerProj: []int{0, 1},
		JoinType: InnerJoin, Weight: orders.K, Parallel: true,
	}
	rows, _ := te.run(nl)
	if len(rows) != 200 {
		t.Fatalf("NL join rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[1] != r[3] || r[4] != r[3]%5 {
			t.Fatalf("bad NL row %v", r)
		}
	}
}

func TestHashAggMatchesReference(t *testing.T) {
	for _, dop := range []int{1, 4} {
		te := newTestEnv(dop)
		orders := te.ordersTable()
		agg := &Node{
			Kind:   KHashAgg,
			Left:   scanNode(orders, []int{1, 2}, nil, 0, dop > 1),
			Groups: []int{0}, // ckey
			Aggs: []AggSpec{
				{Kind: AggSum, Col: 1},
				{Kind: AggCount},
				{Kind: AggMin, Col: 1},
				{Kind: AggMax, Col: 1},
			},
			Weight: orders.K, Parallel: dop > 1,
		}
		rows, _ := te.run(agg)
		if len(rows) != 20 {
			t.Fatalf("dop %d: groups = %d, want 20", dop, len(rows))
		}
		// Reference for group 3: orders with i%20==3, amount=(i*7)%100.
		var wantSum, wantCnt, wantMin, wantMax int64
		wantMin = 1 << 62
		for i := int64(3); i < 200; i += 20 {
			a := (i * 7) % 100
			wantSum += a * 5 // weight K=5
			wantCnt += 5
			if a < wantMin {
				wantMin = a
			}
			if a > wantMax {
				wantMax = a
			}
		}
		r := rows[3] // sorted by group key
		if r[0] != 3 || r[1] != wantSum || r[2] != wantCnt || r[3] != wantMin || r[4] != wantMax {
			t.Fatalf("dop %d: group 3 = %v, want [3 %d %d %d %d]", dop, r, wantSum, wantCnt, wantMin, wantMax)
		}
	}
}

func TestScalarAggOnEmptyInput(t *testing.T) {
	te := newTestEnv(1)
	orders := te.ordersTable()
	agg := &Node{
		Kind:   KHashAgg,
		Left:   scanNode(orders, []int{2}, func(r Row) bool { return false }, 1, false),
		Groups: nil,
		Aggs:   []AggSpec{{Kind: AggSum, Col: 0}, {Kind: AggCount}},
		Weight: orders.K,
	}
	rows, _ := te.run(agg)
	if len(rows) != 1 || rows[0][0] != 0 || rows[0][1] != 0 {
		t.Fatalf("scalar agg on empty = %v", rows)
	}
}

func TestSortAndTop(t *testing.T) {
	for _, dop := range []int{1, 4} {
		te := newTestEnv(dop)
		orders := te.ordersTable()
		srt := &Node{
			Kind:   KSort,
			Left:   scanNode(orders, []int{2, 0}, nil, 0, dop > 1),
			Keys:   []SortKey{{Col: 0, Desc: true}, {Col: 1}},
			Weight: orders.K, Parallel: dop > 1,
		}
		rows, _ := te.run(srt)
		if len(rows) != 200 {
			t.Fatalf("sort rows = %d", len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1][0] < rows[i][0] {
				t.Fatalf("dop %d: sort order violated at %d", dop, i)
			}
			if rows[i-1][0] == rows[i][0] && rows[i-1][1] > rows[i][1] {
				t.Fatalf("dop %d: tiebreak violated at %d", dop, i)
			}
		}
	}
	te := newTestEnv(2)
	orders := te.ordersTable()
	top := &Node{
		Kind:  KTop,
		Left:  scanNode(orders, []int{2, 0}, nil, 0, false),
		Keys:  []SortKey{{Col: 0, Desc: true}},
		Limit: 5, Weight: orders.K,
	}
	rows, _ := te.run(top)
	if len(rows) != 5 || rows[0][0] < rows[4][0] {
		t.Fatalf("top rows = %v", rows)
	}
}

func TestColScanMatchesRowScan(t *testing.T) {
	te := newTestEnv(4)
	orders := te.ordersTable()
	csi := access.NewCSI(colstore.Build(200, orders, []int{0, 1, 2}))
	csi.Ix.File.Region = te.env.M.ReserveRegion(csi.Ix.File.Bytes() + 1<<20)
	te.env.BP.Register(csi.Ix.File)
	n := &Node{
		Kind: KColScan, CSI: csi, Proj: []int{0, 2},
		Pred: func(r Row) bool { return r[1] == 3 }, NPred: 1, PredCols: []int{1},
		Weight: orders.K, Parallel: true, Name: "orders_csi",
	}
	rows, _ := te.run(n)
	if len(rows) != 10 {
		t.Fatalf("colscan rows = %d, want 10", len(rows))
	}
	sortRows(rows)
	for _, r := range rows {
		if r[0]%20 != 3 || r[1] != (r[0]*7)%100 {
			t.Fatalf("bad colscan row %v", r)
		}
	}
}

func TestHomeRespectsShrunkCpuset(t *testing.T) {
	// A session Home assigned before the cpuset shrank (AllowN) must not
	// be used once it is outside the allowed set — serial stages would
	// run on disallowed cores and distort core-allocation experiments.
	e := &Env{Cores: []int{0, 1, 2, 3}, Home: 6}
	if got := e.home(); got != 0 {
		t.Fatalf("home() = %d for Home=6 outside cpuset %v, want 0", got, e.Cores)
	}
	e.Home = 2
	if got := e.home(); got != 2 {
		t.Fatalf("home() = %d for Home=2 inside cpuset, want 2", got)
	}
	e = &Env{Cores: []int{4, 5}, Home: 0}
	if got := e.home(); got != 4 {
		t.Fatalf("home() = %d for Home=0 with cpuset %v, want 4", got, e.Cores)
	}
}

// TestWorkerRNGIsFork pins bind's copy of sim.RNG.Fork: a worker's
// stream is the one Fork would have returned at the same point, and the
// query's stream advances as Fork advances it.
func TestWorkerRNGIsFork(t *testing.T) {
	e, ref := &Env{RNG: sim.NewRNG(11)}, sim.NewRNG(11)
	for i := 0; i < 3; i++ {
		var w worker
		got, want := e.bind(&w, nil, 0).RNG, ref.Fork()
		for j := 0; j < 4; j++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("worker %d draw %d: %#x, Fork gives %#x", i, j, a, b)
			}
		}
	}
	if a, b := e.RNG.Uint64(), ref.Uint64(); a != b {
		t.Fatalf("query stream after three workers: %#x, after three Forks %#x", a, b)
	}
}

func TestColScanCountStarShape(t *testing.T) {
	// COUNT(*)-shaped plans project no columns and filter on none; the
	// scan must still report every row (via the index's first column)
	// instead of panicking on an empty column set.
	te := newTestEnv(4)
	orders := te.ordersTable()
	csi := access.NewCSI(colstore.Build(200, orders, []int{0, 1, 2}))
	csi.Ix.File.Region = te.env.M.ReserveRegion(csi.Ix.File.Bytes() + 1<<20)
	te.env.BP.Register(csi.Ix.File)
	n := &Node{
		Kind: KColScan, CSI: csi, Proj: nil,
		Weight: orders.K, Parallel: true, Name: "orders_csi",
	}
	rows, _ := te.run(n)
	if len(rows) != 200 {
		t.Fatalf("count(*) colscan rows = %d, want 200", len(rows))
	}
	for _, r := range rows {
		if len(r) != 0 {
			t.Fatalf("projected row not empty: %v", r)
		}
	}
}

func TestGrantOverflowSpills(t *testing.T) {
	te := newTestEnv(2)
	orders := te.ordersTable()
	cust := te.custTable()
	te.env.Grant = &Grant{Bytes: 64} // absurdly small grant
	join := &Node{
		Kind:      KHashJoin,
		Left:      scanNode(cust, []int{0, 1}, nil, 0, false),
		Right:     scanNode(orders, []int{0, 1, 2}, nil, 0, false),
		BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: InnerJoin, Weight: orders.K,
	}
	rows, st := te.run(join)
	if len(rows) != 200 {
		t.Fatalf("spilled join rows = %d", len(rows))
	}
	if st.Spills == 0 || te.ctr.Spills == 0 || st.SpillBytes == 0 {
		t.Fatalf("expected spills, got %+v", st)
	}
	if te.ctr.SSDWriteBytes == 0 {
		t.Fatal("spill wrote nothing to device")
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	// Needs enough nominal work for DOP to amortize worker startup —
	// tiny inputs correctly run *slower* in parallel (the paper's Q20
	// effect at small scale factors).
	bigTable := func(te *testEnv) *storage.Table {
		sch := storage.NewSchema("big",
			storage.Column{Name: "okey", Type: storage.TInt, Width: 8},
			storage.Column{Name: "ckey", Type: storage.TInt, Width: 8},
			storage.Column{Name: "amount", Type: storage.TInt, Width: 8},
		)
		tb := storage.NewTable(9, sch, 100)
		for i := int64(0); i < 20000; i++ {
			tb.AppendLoad([]int64{i, i % 20, (i * 7) % 100})
		}
		tb.Data.Region = te.env.M.ReserveRegion(tb.NominalDataBytes())
		te.env.BP.Register(tb.Data)
		return tb
	}
	elapsed := func(dop int) float64 {
		te := newTestEnv(dop)
		orders := bigTable(te)
		agg := &Node{
			Kind:   KHashAgg,
			Left:   scanNode(orders, []int{1, 2}, nil, 0, dop > 1),
			Groups: []int{0},
			Aggs:   []AggSpec{{Kind: AggSum, Col: 1}},
			Weight: orders.K, Parallel: dop > 1,
		}
		var end sim.Time
		te.sm.Spawn("q", func(p *sim.Proc) {
			Run(p, te.env, agg)
			end = p.Now()
		})
		te.sm.Run(sim.Time(3600 * sim.Second))
		return end.Seconds()
	}
	s1 := elapsed(1)
	s8 := elapsed(8)
	if s8 >= s1 {
		t.Fatalf("dop 8 (%.6fs) not faster than serial (%.6fs)", s8, s1)
	}
}

func TestPlanRenderAndShape(t *testing.T) {
	te := newTestEnv(2)
	orders := te.ordersTable()
	cust := te.custTable()
	join := &Node{
		Kind:      KHashJoin,
		Left:      scanNode(cust, []int{0, 1}, nil, 0, false),
		Right:     scanNode(orders, []int{0, 1}, nil, 0, true),
		BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: InnerJoin,
		Weight: orders.K, Parallel: true, Name: "join",
	}
	if got := join.Shape(); got != "pHJ(Scan,pScan)" {
		t.Fatalf("shape = %q", got)
	}
	r := join.Render()
	if len(r) == 0 || r[0] == ' ' {
		t.Fatalf("render = %q", r)
	}
}

func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := range a {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
}

func TestHashJoinMatchesBruteForceProperty(t *testing.T) {
	g := sim.NewRNG(21)
	f := func(seed uint16) bool {
		te := newTestEnv(2)
		// Small random tables registered with the buffer pool.
		mk := func(id int, rows int, keyMod int64) *storage.Table {
			sch := storage.NewSchema("t"+string(rune('a'+id)),
				storage.Column{Name: "k", Type: storage.TInt, Width: 8},
				storage.Column{Name: "p", Type: storage.TInt, Width: 8},
			)
			tb := storage.NewTable(10+id, sch, 3)
			for i := 0; i < rows; i++ {
				tb.AppendLoad([]int64{g.Int64n(keyMod), int64(i)})
			}
			tb.Data.Region = te.env.M.ReserveRegion(tb.NominalDataBytes() + 1<<20)
			te.env.BP.Register(tb.Data)
			return tb
		}
		l := mk(0, int(seed%40)+5, 12)
		r := mk(1, int(seed%25)+5, 12)
		join := &Node{
			Kind:      KHashJoin,
			Left:      scanNode(l, []int{0, 1}, nil, 0, false),
			Right:     scanNode(r, []int{0, 1}, nil, 0, false),
			BuildKeys: []int{0}, ProbeKeys: []int{0},
			JoinType: InnerJoin, Weight: 3,
		}
		rows, _ := te.run(join)
		// Brute force count.
		want := 0
		for i := int64(0); i < l.ActualRows(); i++ {
			for j := int64(0); j < r.ActualRows(); j++ {
				if l.Get(i, 0) == r.Get(j, 0) {
					want++
				}
			}
		}
		return len(rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSemiPlusAntiPartitionProbe(t *testing.T) {
	// For any key sets, semi(probe) + anti(probe) == probe rows.
	mk := func(jt JoinType) int {
		te := newTestEnv(2)
		orders := te.ordersTable()
		cust := te.custTable()
		n := &Node{
			Kind:      KHashJoin,
			Left:      scanNode(cust, []int{0}, func(r Row) bool { return r[0]%3 == 0 }, 1, false),
			Right:     scanNode(orders, []int{0, 1}, nil, 0, false),
			BuildKeys: []int{0}, ProbeKeys: []int{1},
			JoinType: jt, Weight: orders.K,
		}
		rows, _ := te.run(n)
		return len(rows)
	}
	semi := mk(SemiJoin)
	anti := mk(AntiJoin)
	if semi+anti != 200 {
		t.Fatalf("semi %d + anti %d != 200 (want semi=70)", semi, anti)
	}
}
