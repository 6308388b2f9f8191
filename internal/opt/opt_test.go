package opt

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/storage"
)

func simNewRNG(seed int64) *sim.RNG { return sim.NewRNG(seed) }

func table(name string, id int, k int64, rows int64, cols int) *storage.Table {
	var cs []storage.Column
	names := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < cols; i++ {
		cs = append(cs, storage.Column{Name: names[i], Type: storage.TInt, Width: 8})
	}
	t := storage.NewTable(id, storage.NewSchema(name, cs...), k)
	for i := int64(0); i < rows; i++ {
		row := make([]int64, cols)
		row[0] = i
		if cols > 1 {
			row[1] = i % 100
		}
		t.AppendLoad(row)
	}
	return t
}

func planner(dop int) *Planner {
	pl := NewPlanner(access.DefaultCost())
	pl.Dop = dop
	pl.WorkspaceBytes = 8 << 30
	pl.BufferBytes = 45 << 30
	pl.DBBytes = 40 << 30 // fits: warm
	return pl
}

func scanL(t *storage.Table, proj []int, sel float64) *LNode {
	return &LNode{Kind: LScan, Heap: access.Heap{T: t}, Proj: proj, Sel: sel, Name: t.Name}
}

func TestCheapQueriesStaySerial(t *testing.T) {
	small := table("small", 1, 1, 100, 2)
	pl := planner(32)
	node, info := pl.Plan(scanL(small, []int{0}, 1))
	if info.Dop != 1 || node.Parallel {
		t.Fatalf("tiny scan should be serial, got dop %d", info.Dop)
	}
}

func TestExpensiveQueriesGoParallel(t *testing.T) {
	big := table("big", 1, 100000, 5000, 2) // 500M nominal rows
	pl := planner(32)
	node, info := pl.Plan(scanL(big, []int{0}, 1))
	if info.Dop != 32 || !node.Parallel {
		t.Fatalf("big scan should be parallel, got dop %d", info.Dop)
	}
	if !strings.HasPrefix(node.Shape(), "p") {
		t.Fatalf("shape %q not parallel", node.Shape())
	}
}

func TestSmallerSideBuildsHashJoin(t *testing.T) {
	fact := table("fact", 1, 1000, 10000, 3)
	dim := table("dim", 2, 1, 100, 2)
	join := &LNode{
		Kind: LJoin, Left: scanL(fact, []int{0, 1}, 1), Right: scanL(dim, []int{0, 1}, 1),
		LeftKeys: []int{1}, RightKeys: []int{0}, JoinType: exec.InnerJoin, FK: true,
	}
	pl := planner(1)
	node, _ := pl.Plan(join)
	// dim (small) should be the build side = node.Left, probe = fact.
	if node.Kind != exec.KHashJoin {
		t.Fatalf("kind = %v", node.Kind)
	}
	if node.Left.Name != "dim" || node.Right.Name != "fact" {
		t.Fatalf("build = %s, probe = %s", node.Left.Name, node.Right.Name)
	}
}

func TestBuildOnLeftGetsReorderProjection(t *testing.T) {
	small := table("small", 1, 1, 50, 2)
	big := table("big", 2, 1000, 10000, 2)
	join := &LNode{
		Kind: LJoin, Left: scanL(small, []int{0, 1}, 1), Right: scanL(big, []int{0, 1}, 1),
		LeftKeys: []int{0}, RightKeys: []int{0}, JoinType: exec.InnerJoin, FK: true,
	}
	pl := planner(1)
	node, _ := pl.Plan(join)
	if node.Kind != exec.KProject {
		t.Fatalf("expected reorder projection, got %v (%s)", node.Kind, node.Shape())
	}
	if node.Left.Kind != exec.KHashJoin || node.Left.Left.Name != "small" {
		t.Fatalf("build side = %s", node.Left.Left.Name)
	}
}

func TestNLJoinChosenForSelectiveOuter(t *testing.T) {
	// A heavily filtered outer probing a large inner: scanning and
	// hashing the inner would dwarf a handful of index seeks.
	outer := table("outer", 1, 1, 1000, 3)
	inner := table("inner", 2, 10000, 5000, 2) // 50M nominal rows
	ix := access.NewBTIndex(10, "pk_inner", inner, []int{0}, true, true)
	join := &LNode{
		Kind: LJoin, Left: scanL(outer, []int{0, 1}, 0.01), Right: scanL(inner, []int{0, 1}, 1),
		LeftKeys: []int{1}, RightKeys: []int{0}, JoinType: exec.InnerJoin, FK: true,
		InnerIndex: ix, InnerProj: []int{0, 1},
	}
	pl := planner(1)
	node, _ := pl.Plan(join)
	if node.Kind != exec.KNLIndexJoin {
		t.Fatalf("expected NL join, got %s", node.Shape())
	}
}

func TestColdRandomIODiscouragesNLSerial(t *testing.T) {
	fact := table("fact", 1, 10000, 5000, 3) // 50M nominal outer rows
	dim := table("dim", 2, 10000, 5000, 2)   // huge inner: cold probes
	ix := access.NewBTIndex(10, "pk_dim", dim, []int{0}, true, true)
	join := &LNode{
		Kind: LJoin, Left: scanL(fact, []int{0, 1}, 1), Right: scanL(dim, []int{0, 1}, 1),
		LeftKeys: []int{1}, RightKeys: []int{0}, JoinType: exec.InnerJoin, FK: true,
		InnerIndex: ix, InnerProj: []int{0, 1},
	}
	pl := planner(1)
	pl.DBBytes = 130 << 30 // does not fit: cold probes are expensive
	node, _ := pl.Plan(join)
	if node.Kind == exec.KNLIndexJoin {
		t.Fatalf("cold serial NL should lose to hash, got %s", node.Shape())
	}
	// At high DOP the overlapped random I/O tilts back toward NL.
	pl32 := planner(32)
	pl32.DBBytes = 130 << 30
	node32, info := pl32.Plan(join)
	if info.Dop != 32 {
		t.Fatalf("expected parallel plan, dop = %d", info.Dop)
	}
	if node32.Shape() == node.Shape() {
		t.Log("plan shape did not change with DOP (acceptable if costs are close)")
	}
}

func TestGrantCappedAtFraction(t *testing.T) {
	big := table("big", 1, 100000, 5000, 3)
	agg := &LNode{
		Kind: LAgg, Left: scanL(big, []int{0, 1}, 1),
		Groups: []int{0}, Aggs: []exec.AggSpec{{Kind: exec.AggSum, Col: 1}},
		NGroups: 1e9, // enormous group estimate
	}
	pl := planner(1)
	pl.WorkspaceBytes = 1 << 30
	pl.GrantFrac = 0.25
	_, info := pl.Plan(agg)
	if info.GrantBytes != (1<<30)/4 {
		t.Fatalf("grant = %d, want cap %d", info.GrantBytes, (1<<30)/4)
	}
	if info.MemNeed <= info.GrantBytes {
		t.Fatal("expected memory need above the cap")
	}
}

func TestEstimatesPropagate(t *testing.T) {
	tb := table("t", 1, 10, 1000, 2)
	pl := planner(1)
	node, _ := pl.Plan(scanL(tb, []int{0}, 0.1))
	if node.EstRows != 1000 {
		t.Fatalf("est rows = %f, want 1000 (10000 nominal * 0.1)", node.EstRows)
	}
	srt := &LNode{Kind: LTop, Left: scanL(tb, []int{0}, 1), Keys: []exec.SortKey{{Col: 0}}, Limit: 10}
	node, _ = pl.Plan(srt)
	if node.Kind != exec.KTop || node.Limit != 10 {
		t.Fatalf("top plan wrong: %s", node.Shape())
	}
}

func TestHistogramSelectivities(t *testing.T) {
	// 1000 values uniform over [0, 999].
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	h := BuildHistogram(vals, 32)
	if h.Total != 1000 || h.Min != 0 || h.Max != 999 {
		t.Fatalf("histogram meta: %+v", h)
	}
	if got := h.SelRange(0, 999); got < 0.99 {
		t.Fatalf("full range sel = %f", got)
	}
	if got := h.SelRange(0, 99); got < 0.07 || got > 0.14 {
		t.Fatalf("10%% range sel = %f", got)
	}
	if got := h.SelRange(500, 499); got != 0 {
		t.Fatalf("empty range sel = %f", got)
	}
	if got := h.SelLE(-5); got != 0 {
		t.Fatalf("below-min sel = %f", got)
	}
	// Skewed data: heavy value should not break bucket boundaries.
	skew := make([]int64, 0, 1000)
	for i := 0; i < 900; i++ {
		skew = append(skew, 7)
	}
	for i := 0; i < 100; i++ {
		skew = append(skew, int64(1000+i))
	}
	hs := BuildHistogram(skew, 16)
	if got := hs.SelRange(7, 7); got < 0.85 {
		t.Fatalf("hot value sel = %f", got)
	}
	empty := BuildHistogram(nil, 8)
	if empty.SelLE(5) != 0 || empty.SelRange(0, 5) != 0 {
		t.Fatal("empty histogram should be all-zero")
	}
}

func TestHistogramSelMonotoneProperty(t *testing.T) {
	g := simNewRNG(3)
	f := func(seed uint16) bool {
		vals := make([]int64, 500)
		for i := range vals {
			vals[i] = g.Int64n(10000)
		}
		h := BuildHistogram(vals, 20)
		prev := -1.0
		for v := int64(0); v <= 10000; v += 500 {
			s := h.SelLE(v)
			if s < prev-1e-9 || s < 0 || s > 1 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDrivePlanSelectivity(t *testing.T) {
	tb := table("t", 1, 10, 2000, 2)
	// Column 1 holds i%100: a range [0,9] covers ~10%.
	stats := CollectStats(tb, []int{1}, 32)
	pl := planner(1)
	node, _ := pl.Plan(&LNode{
		Kind: LScan, Heap: access.Heap{T: tb}, Proj: []int{0},
		Stats: stats, PredRanges: []ColRange{{Col: 1, Lo: 0, Hi: 9}},
		Name: "t",
	})
	nominal := float64(tb.NominalRows())
	if node.EstRows < nominal*0.05 || node.EstRows > nominal*0.2 {
		t.Fatalf("est rows = %f of %f nominal", node.EstRows, nominal)
	}
}
