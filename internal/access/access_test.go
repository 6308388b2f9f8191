package access

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/colstore"
	"repro/internal/hw"
	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

type fixture struct {
	sm  *sim.Sim
	m   *hw.Machine
	bp  *buffer.Pool
	ctr *metrics.Counters
}

func newFixture() *fixture {
	sm := sim.New(3)
	ctr := &metrics.Counters{}
	m := hw.New(sm, hw.PaperSpec(), ctr)
	dev := iodev.New(iodev.PaperSSD(), ctr)
	bp := buffer.New(sm, dev, ctr, 256<<20)
	return &fixture{sm: sm, m: m, bp: bp, ctr: ctr}
}

func (f *fixture) ctx(p *sim.Proc) *Ctx {
	return &Ctx{
		P: p, Core: 0, M: f.m, BP: f.bp, Ctr: f.ctr,
		Cost: DefaultCost(), RNG: sim.NewRNG(9),
		MetaBase: f.m.ReserveRegion(16 << 20),
	}
}

func (f *fixture) table(k int64, rows int64) *storage.Table {
	sch := storage.NewSchema("t",
		storage.Column{Name: "id", Type: storage.TInt, Width: 8},
		storage.Column{Name: "v", Type: storage.TInt, Width: 8},
	)
	t := storage.NewTable(1, sch, k)
	for i := int64(0); i < rows; i++ {
		t.AppendLoad([]int64{i, i % 50})
	}
	t.Data.Region = f.m.ReserveRegion(t.NominalDataBytes())
	f.bp.Register(t.Data)
	return t
}

func TestHeapChargeScanCostsScaleWithRows(t *testing.T) {
	f := newFixture()
	tb := f.table(1000, 500) // 500k nominal rows
	var small, large sim.Duration
	f.sm.Spawn("w", func(p *sim.Proc) {
		ctx := f.ctx(p)
		start := p.Now()
		Heap{T: tb}.ChargeScan(ctx, 0, 50_000, 1)
		ctx.Flush()
		small = sim.Duration(p.Now() - start)
		start = p.Now()
		Heap{T: tb}.ChargeScan(ctx, 0, 500_000, 1)
		ctx.Flush()
		large = sim.Duration(p.Now() - start)
	})
	f.sm.Run(sim.Time(600 * sim.Second))
	if large < small*5 {
		t.Fatalf("10x rows cost only %v vs %v", large, small)
	}
	if f.ctr.Instructions == 0 || f.ctr.SSDReadBytes == 0 {
		t.Fatal("scan charged nothing")
	}
}

func TestHeapProbeWarmVsCold(t *testing.T) {
	f := newFixture()
	tb := f.table(1000, 500)
	var cold, warm sim.Duration
	f.sm.Spawn("w", func(p *sim.Proc) {
		ctx := f.ctx(p)
		start := p.Now()
		Heap{T: tb}.ProbePoint(ctx, 1234, false)
		ctx.Flush()
		cold = sim.Duration(p.Now() - start)
		start = p.Now()
		Heap{T: tb}.ProbePoint(ctx, 1234, false)
		ctx.Flush()
		warm = sim.Duration(p.Now() - start)
	})
	f.sm.Run(sim.Time(60 * sim.Second))
	if cold < warm*3 {
		t.Fatalf("cold probe %v should dwarf warm probe %v (device latency)", cold, warm)
	}
}

func TestBTIndexProbeFindsRows(t *testing.T) {
	f := newFixture()
	tb := f.table(100, 1000)
	ix := NewBTIndex(50, "pk", tb, []int{0}, true, true)
	ix.File.Region = f.m.ReserveRegion(ix.File.Bytes())
	f.bp.Register(ix.File)
	found, missed := 0, 0
	f.sm.Spawn("w", func(p *sim.Proc) {
		ctx := f.ctx(p)
		for i := int64(0); i < 50; i++ {
			if rowID, ok := ix.Probe(ctx, btree.Key{i * 7}, i*7*tb.K, false); ok {
				if tb.Get(rowID, 0) != i*7 {
					t.Errorf("probe returned wrong row")
				}
				found++
			}
		}
		if _, ok := ix.Probe(ctx, btree.Key{99999}, 0, false); !ok {
			missed++
		}
		ctx.Flush()
	})
	f.sm.Run(sim.Time(60 * sim.Second))
	if found != 50 || missed != 1 {
		t.Fatalf("found=%d missed=%d", found, missed)
	}
}

func TestBTIndexLookupAllPrefix(t *testing.T) {
	f := newFixture()
	tb := f.table(1, 100)
	// Non-unique index on v = id % 50: two rows per value.
	ix := NewBTIndex(51, "ix_v", tb, []int{1}, false, false)
	got := ix.LookupAll(btree.Key{7})
	if len(got) != 2 {
		t.Fatalf("prefix matches = %d, want 2", len(got))
	}
	for _, r := range got {
		if tb.Get(r, 1) != 7 {
			t.Fatal("wrong row matched")
		}
	}
	if n := len(ix.LookupAll(btree.Key{999})); n != 0 {
		t.Fatalf("missing prefix matched %d", n)
	}
}

// InsertActual builds its key on the stack: the tree copies it, so only
// the tree's own node growth allocates, and that is under one per insert.
func TestBTIndexInsertActualAllocatesNothing(t *testing.T) {
	f := newFixture()
	tb := f.table(1, 1000)
	ix := NewBTIndex(54, "ix_v", tb, []int{1}, false, false) // (v, row ID) keys
	r := int64(0)
	if avg := testing.AllocsPerRun(200, func() { ix.InsertActual(r % 1000); r++ }); avg != 0 {
		t.Fatalf("InsertActual: %v allocs per insert, want 0", avg)
	}
	if ix.Tree.Len() != 1000+201 { // AllocsPerRun adds a warm-up call
		t.Fatalf("tree holds %d entries, want 1201", ix.Tree.Len())
	}
}

func TestBTIndexGeometryGrowsWithTable(t *testing.T) {
	f := newFixture()
	tb := f.table(1000, 100)
	before := NewBTIndex(52, "pk", tb, []int{0}, true, false).NominalBytes()
	for i := 0; i < 100_000; i++ {
		tb.InsertNominal([]int64{int64(i), 0})
	}
	after := NewBTIndex(53, "pk", tb, []int{0}, true, false).NominalBytes()
	if after <= before {
		t.Fatalf("geometry did not grow: %d -> %d", before, after)
	}
}

func TestCSIChargeSegmentScan(t *testing.T) {
	f := newFixture()
	tb := f.table(1000, 2000)
	csi := NewCSI(colstore.Build(60, tb, []int{0, 1}))
	csi.Ix.File.Region = f.m.ReserveRegion(csi.Ix.File.Bytes() + (1 << 20))
	f.bp.Register(csi.Ix.File)
	var rows int64
	f.sm.Spawn("w", func(p *sim.Proc) {
		ctx := f.ctx(p)
		for sg := 0; sg < csi.Ix.Segments(); sg++ {
			rows += csi.ChargeSegmentScan(ctx, 0, sg, 0)
		}
		ctx.Flush()
	})
	f.sm.Run(sim.Time(60 * sim.Second))
	if rows != tb.NominalRows() {
		t.Fatalf("segment rows %d != nominal %d", rows, tb.NominalRows())
	}
	if f.ctr.SSDReadBytes == 0 {
		t.Fatal("cold segment scan read nothing")
	}
}

func TestCtxFlushesAtQuantum(t *testing.T) {
	f := newFixture()
	f.sm.Spawn("w", func(p *sim.Proc) {
		ctx := f.ctx(p)
		// Far more than one quantum of CPU: must auto-flush.
		ctx.CPU(10_000_000)
		if p.Now() == 0 {
			t.Error("quantum-sized work did not advance simulated time")
		}
	})
	f.sm.Run(sim.Time(60 * sim.Second))
	if f.ctr.Instructions == 0 {
		t.Fatal("instructions never flushed")
	}
}

func TestTouchMetaRespectsDisable(t *testing.T) {
	f := newFixture()
	f.sm.Spawn("w", func(p *sim.Proc) {
		ctx := f.ctx(p)
		ctx.MetaBase = 0
		before := f.ctr.LLCAccesses
		ctx.TouchMeta(1e6)
		if f.ctr.LLCAccesses != before {
			t.Error("disabled meta touch still accessed cache")
		}
		ctx.MetaBase = f.m.ReserveRegion(16 << 20)
		ctx.TouchMeta(1e6)
		if f.ctr.LLCAccesses == before {
			t.Error("enabled meta touch accessed nothing")
		}
	})
	f.sm.Run(sim.Time(60 * sim.Second))
}
