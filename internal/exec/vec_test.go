package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/colstore"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// diffCase is one row-vs-batch differential point: build constructs the
// same plan over fresh tables in a fresh env, and the two engines must
// produce identical rows in identical order.
type diffCase struct {
	name  string
	grant int64 // grant bytes (0 = unlimited)
	build func(te *testEnv) *Node
}

// registerCSI builds and registers a columnstore over the table.
func registerCSI(te *testEnv, id int, tab *storage.Table, cols []int) *access.CSI {
	csi := access.NewCSI(colstore.Build(id, tab, cols))
	csi.Ix.File.Region = te.env.M.ReserveRegion(csi.Ix.File.Bytes() + 1<<20)
	te.env.BP.Register(csi.Ix.File)
	return csi
}

func diffCases() []diffCase {
	joinNode := func(te *testEnv, jt JoinType, par bool) *Node {
		orders := te.ordersTable()
		cust := te.custTable()
		return &Node{
			Kind:      KHashJoin,
			Left:      scanNode(cust, []int{0, 1}, nil, 0, false),
			Right:     scanNode(orders, []int{0, 1, 2}, nil, 0, par),
			BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: jt,
			Weight: orders.K, Parallel: par,
		}
	}
	nlNode := func(te *testEnv, jt JoinType) *Node {
		orders := te.ordersTable()
		cust := te.custTable()
		ix := access.NewBTIndex(100, "pk_customer", cust, []int{0}, true, true)
		ix.File.Region = te.env.M.ReserveRegion(ix.File.Bytes())
		te.env.BP.Register(ix.File)
		return &Node{
			Kind:  KNLIndexJoin,
			Left:  scanNode(orders, []int{0, 1, 2}, nil, 0, true),
			Index: ix, OuterKeys: []int{1}, InnerProj: []int{0, 1},
			JoinType: jt, Weight: orders.K, Parallel: true,
		}
	}
	allAggs := []AggSpec{
		{Kind: AggSum, Col: 1},
		{Kind: AggCount},
		{Kind: AggMin, Col: 1},
		{Kind: AggMax, Col: 1},
		{Kind: AggAvg, Col: 1},
	}

	cases := []diffCase{
		{name: "rowscan-proj", build: func(te *testEnv) *Node {
			return scanNode(te.ordersTable(), []int{2, 0}, nil, 0, true)
		}},
		{name: "rowscan-pred", build: func(te *testEnv) *Node {
			return scanNode(te.ordersTable(), []int{0, 2}, func(r Row) bool { return r[1] == 3 }, 1, true)
		}},
		{name: "rowscan-pred-none-match", build: func(te *testEnv) *Node {
			return scanNode(te.ordersTable(), []int{0}, func(r Row) bool { return r[1] == 99 }, 1, true)
		}},
		{name: "colscan-pred", build: func(te *testEnv) *Node {
			orders := te.ordersTable()
			csi := registerCSI(te, 200, orders, []int{0, 1, 2})
			return &Node{
				Kind: KColScan, CSI: csi, Proj: []int{0, 2},
				Pred: func(r Row) bool { return r[1] == 3 }, NPred: 1, PredCols: []int{1},
				Weight: orders.K, Parallel: true, Name: "orders_csi",
			}
		}},
		{name: "colscan-count-shape", build: func(te *testEnv) *Node {
			orders := te.ordersTable()
			csi := registerCSI(te, 201, orders, []int{0, 1, 2})
			return &Node{
				Kind: KHashAgg,
				Left: &Node{Kind: KColScan, CSI: csi, Proj: nil, Weight: orders.K, Parallel: true},
				Aggs: []AggSpec{{Kind: AggCount}}, Weight: orders.K,
			}
		}},
		{name: "colscan-delta", build: func(te *testEnv) *Node {
			orders := te.ordersTable()
			csi := registerCSI(te, 202, orders, []int{0, 1, 2})
			for i := int64(0); i < 7; i++ {
				csi.Ix.AppendDelta([]int64{1000 + i, i % 20, 50})
			}
			return &Node{
				Kind: KColScan, CSI: csi, Proj: []int{0, 1},
				Pred: func(r Row) bool { return r[1]%2 == 1 }, NPred: 1, PredCols: []int{1},
				Weight: orders.K, Parallel: true,
			}
		}},
		{name: "filter", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KFilter,
				Left: scanNode(te.ordersTable(), []int{0, 1, 2}, nil, 0, true),
				Pred: func(r Row) bool { return r[2] > 50 }, NPred: 1, Weight: te.env.Cost.TupleBytes,
			}
		}},
		{name: "filter-nil-pred", build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KFilter,
				Left:   scanNode(te.ordersTable(), []int{0, 1}, nil, 0, true),
				Weight: 5,
			}
		}},
		{name: "filter-chain", build: func(te *testEnv) *Node {
			inner := &Node{
				Kind: KFilter,
				Left: scanNode(te.ordersTable(), []int{0, 1, 2}, nil, 0, true),
				Pred: func(r Row) bool { return r[2] > 20 }, NPred: 1, Weight: 5,
			}
			return &Node{
				Kind: KFilter, Left: inner,
				Pred: func(r Row) bool { return r[1] < 10 }, NPred: 1, Weight: 5,
			}
		}},
		{name: "project", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KProject,
				Left: scanNode(te.ordersTable(), []int{0, 2}, nil, 0, true),
				Exprs: []func(Row) int64{
					func(r Row) int64 { return r[0] + r[1] },
					func(r Row) int64 { return r[1] * 3 },
				},
				Weight: 5,
			}
		}},
		{name: "sort-multikey", build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KSort,
				Left:   scanNode(te.ordersTable(), []int{1, 2, 0}, nil, 0, true),
				Keys:   []SortKey{{Col: 0}, {Col: 1, Desc: true}},
				Weight: 5, Parallel: true,
			}
		}},
		{name: "top-limit", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KTop,
				Left: scanNode(te.ordersTable(), []int{2, 0}, nil, 0, true),
				Keys: []SortKey{{Col: 0, Desc: true}}, Limit: 13,
				Weight: 5,
			}
		}},
		{name: "top-limit-over-input", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KTop,
				Left: scanNode(te.ordersTable(), []int{2, 0}, nil, 0, true),
				Keys: []SortKey{{Col: 0}}, Limit: 1000,
				Weight: 5,
			}
		}},
		{name: "top-no-keys", build: func(te *testEnv) *Node {
			return &Node{
				Kind:  KTop,
				Left:  scanNode(te.ordersTable(), []int{0, 1}, nil, 0, true),
				Limit: 17, Weight: 5,
			}
		}},
		{name: "agg-empty-input-scalar", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KHashAgg,
				Left: scanNode(te.ordersTable(), []int{1, 2}, func(r Row) bool { return false }, 1, true),
				Aggs: allAggs, Weight: 5,
			}
		}},
		{name: "agg-wide-groups", build: func(te *testEnv) *Node {
			// Five group columns exercise the wide (string-key) fallback.
			return &Node{
				Kind:   KHashAgg,
				Left:   scanNode(te.ordersTable(), []int{0, 1, 2}, nil, 0, true),
				Groups: []int{1, 2, 1, 2, 1}, Aggs: allAggs,
				Weight: 5, Parallel: true,
			}
		}},
		{name: "hashjoin-spill", grant: 64, build: func(te *testEnv) *Node {
			return joinNode(te, InnerJoin, false)
		}},
		{name: "sort-spill", grant: 64, build: func(te *testEnv) *Node {
			return &Node{
				Kind: KSort,
				Left: scanNode(te.ordersTable(), []int{1, 0}, nil, 0, true),
				Keys: []SortKey{{Col: 0}}, Weight: 5, Parallel: true,
			}
		}},
		{name: "hashagg-spill", grant: 64, build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KHashAgg,
				Left:   scanNode(te.ordersTable(), []int{1, 2}, nil, 0, true),
				Groups: []int{0}, Aggs: allAggs, Weight: 5, Parallel: true,
			}
		}},
	}
	for _, jt := range []JoinType{InnerJoin, SemiJoin, AntiJoin} {
		jt := jt
		cases = append(cases,
			diffCase{name: fmt.Sprintf("hashjoin-%d", jt), build: func(te *testEnv) *Node {
				return joinNode(te, jt, true)
			}},
			diffCase{name: fmt.Sprintf("hashjoin-%d-empty-build", jt), build: func(te *testEnv) *Node {
				n := joinNode(te, jt, true)
				n.Left.Pred = func(r Row) bool { return false }
				n.Left.NPred = 1
				return n
			}},
			diffCase{name: fmt.Sprintf("hashjoin-%d-empty-probe", jt), build: func(te *testEnv) *Node {
				n := joinNode(te, jt, true)
				n.Right.Pred = func(r Row) bool { return false }
				n.Right.NPred = 1
				return n
			}},
			diffCase{name: fmt.Sprintf("nljoin-%d", jt), build: func(te *testEnv) *Node {
				return nlNode(te, jt)
			}},
		)
	}
	return cases
}

// TestVectorizedMatchesRowEngine is the differential gate: Run against
// the runRowEngine oracle. Every operator kind, join type, and aggregate
// kind (plus empty inputs, min/max sentinels, and spill paths) must
// produce identical rows in identical order at DOP 1 and DOP 4, and a
// NodeKind no case plans fails the test, so a new operator cannot ship
// uncompared.
func TestVectorizedMatchesRowEngine(t *testing.T) {
	compared := map[NodeKind]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		compared[n.Kind] = true
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	for _, c := range diffCases() {
		c := c
		walk(c.build(newTestEnv(1))) // outside t.Run, so a -run filter cannot empty the census
		for _, cores := range []int{1, 4} {
			cores := cores
			t.Run(fmt.Sprintf("%s/dop%d", c.name, cores), func(t *testing.T) {
				runCase := func(engine engineFn) ([]Row, QueryStats) {
					te := newTestEnv(cores)
					if c.grant != 0 {
						te.env.Grant = &Grant{Bytes: c.grant}
					}
					return te.runOn(engine, c.build(te))
				}
				rowOut, rowSt := runCase(runRowEngine)
				vecOut, vecSt := runCase(Run)
				if len(rowOut) == 0 && len(vecOut) == 0 {
					// nil vs empty: both engines emitted no rows.
				} else if !reflect.DeepEqual(rowOut, vecOut) {
					t.Fatalf("row/vec mismatch:\nrow (%d): %v\nvec (%d): %v",
						len(rowOut), sampleRows(rowOut), len(vecOut), sampleRows(vecOut))
				}
				if rowSt.OutRows != vecSt.OutRows {
					t.Fatalf("OutRows: row %d vec %d", rowSt.OutRows, vecSt.OutRows)
				}
				if rowSt.Spills != vecSt.Spills || rowSt.SpillBytes != vecSt.SpillBytes {
					t.Fatalf("spills: row %+v vec %+v", rowSt, vecSt)
				}
				if c.grant != 0 && rowSt.Spills == 0 {
					t.Fatalf("spill case did not spill")
				}
				if len(vecOut) > 0 && vecSt.Batches == 0 {
					t.Fatalf("vectorized run reported no batches")
				}
			})
		}
	}
	for k := NodeKind(0); !strings.HasPrefix(k.String(), "Op("); k++ {
		if !compared[k] {
			t.Errorf("%v has no differential case: nothing compares it against the row engine", k)
		}
	}
}

func sampleRows(rows []Row) []Row {
	if len(rows) > 12 {
		return rows[:12]
	}
	return rows
}

// TestTopKIdxMatchesStableSortPrefix checks the bounded heap against the
// definition runTop implements: the first limit rows of the input's
// stable sort.
func TestTopKIdxMatchesStableSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		limit := rng.Intn(70)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(7)) // heavy ties
		}
		less := func(i, j int32) bool { return vals[i] < vals[j] }
		got := topKIdx(n, limit, less)

		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
		}
		sort.SliceStable(ref, func(a, b int) bool { return vals[ref[a]] < vals[ref[b]] })
		want := limit
		if want > n {
			want = n
		}
		if want < 0 {
			want = 0
		}
		if !reflect.DeepEqual(got, ref[:want]) && !(len(got) == 0 && want == 0) {
			t.Fatalf("trial %d (n=%d limit=%d): got %v want %v (vals %v)", trial, n, limit, got, ref[:want], vals)
		}
	}
}

// groupOf returns the group of one columnar row, creating it on first
// sight.
func groupOf(at *aggTable, cols [][]int64, phys int32) int32 {
	g, _ := at.group(cols, phys)
	return g
}

// TestAggTableInlineKeyAllocs: feeding rows of a two-column group-by
// into existing groups must not allocate.
func TestAggTableInlineKeyAllocs(t *testing.T) {
	at := newAggTable([]int{0, 1}, []AggSpec{{Kind: AggSum, Col: 2}, {Kind: AggCount}})
	const n = 64
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i], cols[2][i] = int64(i%4), int64(i%3), int64(i)
	}
	// Materialize every group first, then measure steady-state lookups.
	for i := int32(0); i < n; i++ {
		accumulateCols(at.state(groupOf(at, cols, i)), at.aggs, cols, i, 1)
	}
	i := int32(0)
	avg := testing.AllocsPerRun(1000, func() {
		accumulateCols(at.state(groupOf(at, cols, i%n)), at.aggs, cols, i%n, 1)
		i++
	})
	if avg != 0 {
		t.Fatalf("aggTable allocates %.2f per row of a known two-column group, want 0", avg)
	}
}

// TestDecodeRangeMatchesDecode checks DecodeRange over assorted ranges
// against the encoder's input, for all encodings.
func TestDecodeRangeMatchesDecode(t *testing.T) {
	mk := map[string][]int64{}
	packed := make([]int64, 500)
	rle := make([]int64, 500)
	dict := make([]int64, 500)
	for i := range packed {
		packed[i] = int64(i)*12345 + 7 // wide span: frame-of-reference packing
		rle[i] = int64(i / 100)        // long runs: RLE
		dict[i] = int64(i%3) * 1e12    // 3 distinct huge values: dictionary
	}
	mk["packed"] = packed
	mk["rle"] = rle
	mk["dict"] = dict
	for name, vals := range mk {
		s := colstore.Encode(vals)
		for _, r := range [][2]int{{0, 500}, {0, 1}, {499, 500}, {123, 457}, {100, 100}, {37, 38}} {
			lo, hi := r[0], r[1]
			got := s.DecodeRange(lo, hi, nil)
			if !reflect.DeepEqual(append([]int64{}, got...), append([]int64{}, vals[lo:hi]...)) {
				t.Fatalf("%s [%d,%d): got %v want %v", name, lo, hi, got, vals[lo:hi])
			}
		}
	}
}

// TestVectorizedTraceRecordsBatches checks spans carry batch counts.
func TestVectorizedTraceRecordsBatches(t *testing.T) {
	te := newTestEnv(2)
	stmt := &metrics.Counters{}
	te.env.Trace = trace.New("q", stmt)
	tab := te.ordersTable()
	n := scanNode(tab, []int{0, 2}, nil, 0, true)
	rows, st := te.run(n)
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	if st.Batches == 0 {
		t.Fatal("no batches recorded in stats")
	}
	sp := te.env.Trace.Root
	if sp == nil || sp.Batches == 0 {
		t.Fatalf("span batches = %+v", sp)
	}
	if sp.ActRows != 200 {
		t.Fatalf("span rows = %d", sp.ActRows)
	}
}

// TestBatchBuilderBoundaries exercises builder sealing across batch
// boundaries, zero-width batches, and range appends.
func TestBatchBuilderBoundaries(t *testing.T) {
	bb := newBatchBuilder(2, 4, 0)
	src := [][]int64{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}
	bb.appendSrcRange(src, 0, 3)
	bb.appendSrcRange(src, 3, 10)
	bs := bb.finish()
	if len(bs) != 3 || bs[0].Rows() != 4 || bs[1].Rows() != 4 || bs[2].Rows() != 2 {
		t.Fatalf("batches %v", bs)
	}
	rows := batchesToRows(bs)
	for i, r := range rows {
		if r[0] != int64(i) || r[1] != int64(10+i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Zero-width rows round-trip through builders (COUNT(*) shapes).
	zb := newBatchBuilder(0, 4, 0)
	for i := 0; i < 6; i++ {
		zb.room()
	}
	zrows := batchesToRows(zb.finish())
	if len(zrows) != 6 || len(zrows[0]) != 0 {
		t.Fatalf("zero-width rows %v", zrows)
	}
}

// TestVectorizedSerialParallelIdentical is the determinism guarantee:
// the engine emits identical rows at any DOP.
func TestVectorizedSerialParallelIdentical(t *testing.T) {
	run := func(cores int) []Row {
		te := newTestEnv(cores)
		orders := te.ordersTable()
		cust := te.custTable()
		join := &Node{
			Kind:      KHashJoin,
			Left:      scanNode(cust, []int{0, 1}, nil, 0, false),
			Right:     scanNode(orders, []int{0, 1, 2}, nil, 0, cores > 1),
			BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: InnerJoin,
			Weight: orders.K, Parallel: cores > 1,
		}
		root := &Node{
			Kind: KSort, Left: join,
			Keys:   []SortKey{{Col: 2}, {Col: 0, Desc: true}},
			Weight: orders.K, Parallel: cores > 1,
		}
		rows, _ := te.run(root)
		return rows
	}
	serial := run(1)
	par := run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("serial/parallel rows differ: %d vs %d", len(serial), len(par))
	}
}

// TestAggTableWideKeyAllocs: at a five-column group-by, too, a row of an
// existing group allocates nothing.
func TestAggTableWideKeyAllocs(t *testing.T) {
	groups := []int{0, 1, 0, 1, 0}
	at := newAggTable(groups, []AggSpec{{Kind: AggSum, Col: 2}, {Kind: AggCount}})
	const n = 64
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i], cols[2][i] = int64(i%4), int64(i%3), int64(i)
	}
	for i := int32(0); i < n; i++ {
		accumulateCols(at.state(groupOf(at, cols, i)), at.aggs, cols, i, 1)
	}
	if at.count() != 12 {
		t.Fatalf("%d groups, want 12", at.count())
	}
	i := int32(0)
	avg := testing.AllocsPerRun(1000, func() {
		accumulateCols(at.state(groupOf(at, cols, i%n)), at.aggs, cols, i%n, 1)
		i++
	})
	if avg != 0 {
		t.Fatalf("aggTable allocates %.2f per row of a known five-column group, want 0", avg)
	}
}

// TestAggregateAllocatesPerTable pins the group table's allocation: a
// new group is slab space, not an object, so aggregating into 10 000
// groups makes at most aggAllocsPerDoubling more allocations per doubling
// of the group count than aggregating into 10, at a one-column and at a
// five-column group-by, through emit's output batch.
func TestAggregateAllocatesPerTable(t *testing.T) {
	const rows = 20_000
	cols := make([][]int64, 6)
	for c := range cols {
		cols[c] = make([]int64, rows)
	}
	in := []*Batch{{Cols: cols, n: rows}}
	allocs := func(groups []int, ngroups int) float64 {
		for i := 0; i < rows; i++ {
			for c := 0; c < 5; c++ {
				cols[c][i] = int64(i % ngroups * (c + 1))
			}
			cols[5][i] = int64(i)
		}
		n := &Node{Groups: groups, Aggs: []AggSpec{{Kind: AggSum, Col: 5}, {Kind: AggCount}, {Kind: AggAvg, Col: 5}}}
		ran := []bool{true, true, true, true}
		return testing.AllocsPerRun(5, func() {
			at, _, _ := aggregate(in, n, len(ran), 1)
			if out := at.emit(at.live(ran), rows); batchRowCount(out) != ngroups {
				t.Fatalf("%d groups emitted, want %d", batchRowCount(out), ngroups)
			}
		})
	}
	for _, groups := range [][]int{{0}, {0, 1, 2, 3, 4}} {
		few, many := allocs(groups, 10), allocs(groups, 10_000)
		if bound := few + aggAllocsPerDoubling*math.Log2(10_000/10); many > bound {
			t.Errorf("%d-column group-by: %v allocations into 10 000 groups, %v into 10; want at most %.0f",
				len(groups), many, few, bound)
		}
	}
}

// aggAllocsPerDoubling bounds TestAggregateAllocatesPerTable. Measured:
// 25 → 79 allocations (one column) and 27 → 85 (five) from 10 to 10 000
// groups, 5.4-5.8 per doubling; a Go map per table and an object per
// group made 58 → 40 107 and 72 → 50 111.
const aggAllocsPerDoubling = 8

// TestAggregatePartitionAccounting pins what the parallel hash
// aggregate's charges rest on: aggregate's rows[p] and groups[p] are the
// rows and distinct group keys the oracle's partitionRows puts in
// partition p, and every group's part is the partition all of its rows
// go to, so no group spans two partitions.
func TestAggregatePartitionAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	input := func(nrows int) []*Batch {
		rows := make([]Row, nrows)
		for i := range rows {
			r := make(Row, 6)
			for c := range r {
				r[c] = int64(rng.Intn(3)) // heavy key repetition
			}
			rows[i] = r
		}
		in := rowsToBatches(rows, 64)
		if len(in) > 1 {
			// A filtered batch: live rows come through a selection vector.
			in[1].Sel = []int32{1, 2, 5, 8, 13, 21, 34, 55}
		}
		return in
	}
	aggs := []AggSpec{{Kind: AggSum, Col: 5}, {Kind: AggCount}, {Kind: AggMax, Col: 4}}
	for _, c := range []struct {
		name   string
		groups []int
		rows   int
	}{
		{"scalar", nil, 300},
		{"inline-1", []int{2}, 500},
		{"inline-4", []int{3, 0, 2, 1}, 500},
		{"wide-5", []int{0, 1, 2, 3, 4}, 500},
		{"empty", []int{0, 1}, 0},
	} {
		in := input(c.rows)
		n := &Node{Groups: c.groups, Aggs: aggs}
		for _, parts := range []int{1, 2, 3, 4, 8} {
			at, rows, groups := aggregate(in, n, parts, 3)
			ref := partitionRows(batchesToRows(in), c.groups, parts)
			var sumGroups int64
			for p := 0; p < parts; p++ {
				distinct := map[string]bool{}
				for _, b := range rowsToBatches(ref[p], 64) {
					for i := 0; i < b.Rows(); i++ {
						ph := b.phys(i)
						if g, isNew := at.group(b.Cols, ph); int(at.parts[g]) != p || isNew {
							t.Fatalf("%s/%d: a row of partition %d has group %v in partition %d (new %v)",
								c.name, parts, p, at.key(g), at.parts[g], isNew)
						}
						key := make(Row, len(c.groups))
						for k, col := range c.groups {
							key[k] = b.Cols[col][ph]
						}
						distinct[fmt.Sprint(key)] = true
					}
				}
				if rows[p] != int64(len(ref[p])) {
					t.Fatalf("%s/%d: rows[%d] = %d, partitionRows gives %d", c.name, parts, p, rows[p], len(ref[p]))
				}
				if groups[p] != int64(len(distinct)) {
					t.Fatalf("%s/%d: groups[%d] = %d, partitionRows gives %d", c.name, parts, p, groups[p], len(distinct))
				}
				sumGroups += groups[p]
			}
			if sumGroups != int64(at.count()) {
				t.Fatalf("%s/%d: partitions hold %d groups, the table %d", c.name, parts, sumGroups, at.count())
			}
		}
	}
}

// TestHashAggDeadlineSkipsPartitions: when the deadline passes while one
// worker of a parallel aggregate waits for its core, the partition it
// never ran adds no groups, neither to the output nor to the grant, as
// in the oracle, where a skipped partition leaves no table.
func TestHashAggDeadlineSkipsPartitions(t *testing.T) {
	rows := make([]Row, 400)
	for i := range rows {
		rows[i] = Row{int64(i % 40), int64(i)}
	}
	n := &Node{
		Kind: KHashAgg, Left: &Node{Weight: 1}, Groups: []int{0},
		Aggs: []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}}, Weight: 1, Parallel: true,
	}
	run := func(agg func(p *sim.Proc, env *Env, st *QueryStats) int) (int, QueryStats) {
		te := newTestEnv(4)
		te.env.Grant = &Grant{Bytes: 1} // the spill volume tells the groups reserved
		var groups int
		var st QueryStats
		te.sm.Spawn("hog", func(p *sim.Proc) { te.env.M.Exec(p, 0, 0, 5e6) }) // core 0 busy for 5 ms
		te.sm.Spawn("q", func(p *sim.Proc) {
			te.env.Deadline = p.Now() + sim.Time(sim.Millisecond)
			groups = agg(p, te.env, &st)
		})
		te.sm.Run(te.sm.Now() + sim.Time(3600*sim.Second))
		return groups, st
	}
	got, st := run(func(p *sim.Proc, env *Env, st *QueryStats) int {
		return batchRowCount(vecHashAgg(p, env, n, st, rowsToBatches(rows, 64)))
	})
	want, wantSt := run(func(p *sim.Proc, env *Env, st *QueryStats) int {
		return len(runHashAgg(p, env, n, st, rows))
	})
	if got != want || st.SpillBytes != wantSt.SpillBytes {
		t.Fatalf("groups %d, spilled %d B; oracle %d, %d B", got, st.SpillBytes, want, wantSt.SpillBytes)
	}
	if got == 0 || got == 40 {
		t.Fatalf("%d of 40 groups: the deadline did not cut the stage short", got)
	}
}

// FuzzAggSortMatchesOracle decodes a small table with many ties, a
// group-by of 0-5 columns, 1-3 sort keys with mixed directions, a DOP of
// 1-8 and an unlimited or a spilling grant from the input, and runs scan → HashAgg (every aggregate kind)
// → Sort and scan → Sort. Run must return the rows runRowEngine does,
// and the rows Run returns at DOP 1.
func FuzzAggSortMatchesOracle(f *testing.F) {
	f.Add([]byte{2, 0x15, 4, 0, 0x53, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200, 201, 77})
	f.Add([]byte{5, 0x3a, 7, 1, 0xc8, 255, 254, 1, 1, 1, 0, 128, 64, 32, 16, 8, 4, 2})
	f.Add([]byte{0, 0x02, 3, 0, 0x01, 9, 9, 9, 9})
	f.Add([]byte{3, 0x27, 1, 1, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		ngroups := int(data[0] % 6)
		nkeys, desc := 1+int(data[1]%3), data[1]>>2
		dop := 1 + int(data[2]%8)
		grant := int64(0)
		if data[3]&1 != 0 {
			grant = 256 // all but the smallest inputs spill
		}
		vals := data[5:]
		if len(vals) > 300 {
			vals = vals[:300]
		}
		// (id, k0..k4, v): k columns take 2-3 values, so keys tie often.
		table := func(te *testEnv) *storage.Table {
			cols := []storage.Column{{Name: "id", Type: storage.TInt, Width: 8}}
			for c := 0; c < 5; c++ {
				cols = append(cols, storage.Column{Name: fmt.Sprintf("k%d", c), Type: storage.TInt, Width: 8})
			}
			cols = append(cols, storage.Column{Name: "v", Type: storage.TInt, Width: 8})
			tab := storage.NewTable(1, storage.NewSchema("fuzz", cols...), 3)
			for i, b := range vals {
				r := []int64{int64(i)}
				for c := 0; c < 5; c++ {
					r = append(r, int64(b>>c)%int64(2+c%2))
				}
				tab.AppendLoad(append(r, int64(b)-100))
			}
			tab.Data.Region = te.env.M.ReserveRegion(tab.NominalDataBytes() + 1)
			te.env.BP.Register(tab.Data)
			return tab
		}
		sortKeys := func(width int) []SortKey {
			keys := make([]SortKey, nkeys)
			for i := range keys {
				keys[i] = SortKey{Col: int(data[4]>>(3*i)) % width, Desc: desc>>i&1 != 0}
			}
			return keys
		}
		groups := []int{1, 2, 3, 4, 5}[:ngroups]
		aggs := []AggSpec{
			{Kind: AggSum, Col: 6}, {Kind: AggCount}, {Kind: AggMin, Col: 6},
			{Kind: AggMax, Col: 6}, {Kind: AggAvg, Col: 6},
		}
		plans := []struct {
			name string
			plan func(tab *storage.Table) *Node
		}{
			{"agg-sort", func(tab *storage.Table) *Node {
				agg := &Node{
					Kind: KHashAgg, Left: scanNode(tab, []int{0, 1, 2, 3, 4, 5, 6}, nil, 0, true),
					Groups: groups, Aggs: aggs, Weight: tab.K, Parallel: true,
				}
				return &Node{Kind: KSort, Left: agg, Keys: sortKeys(ngroups + len(aggs)), Weight: 1, Parallel: true}
			}},
			{"sort", func(tab *storage.Table) *Node {
				scan := scanNode(tab, []int{0, 1, 2, 3, 4, 5, 6}, nil, 0, true)
				return &Node{Kind: KSort, Left: scan, Keys: sortKeys(7), Weight: tab.K, Parallel: true}
			}},
		}
		for _, pl := range plans {
			run := func(engine engineFn, cores int) ([]Row, QueryStats) {
				te := newTestEnv(cores)
				if grant != 0 {
					te.env.Grant = &Grant{Bytes: grant}
				}
				return te.runOn(engine, pl.plan(table(te)))
			}
			got, st := run(Run, dop)
			want, wantSt := run(runRowEngine, dop)
			serial, _ := run(Run, 1)
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at DOP %d: Run %v, oracle %v", pl.name, dop, got, want)
			}
			if st.OutRows != wantSt.OutRows || st.Spills != wantSt.Spills || st.SpillBytes != wantSt.SpillBytes {
				t.Fatalf("%s at DOP %d: Run stats %+v, oracle %+v", pl.name, dop, st, wantSt)
			}
			if len(got)+len(serial) > 0 && !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s: DOP %d gives %v, DOP 1 %v", pl.name, dop, got, serial)
			}
		}
	})
}
