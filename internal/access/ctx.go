// Package access provides the engine's access methods: costed wrappers
// around the functional storage structures (heaps, B-tree indexes,
// columnstore indexes). Every operation does the real work on the
// scaled-down data *and* charges nominal costs — instructions, LLC
// touches, buffer-pool page I/O — to the simulated machine.
package access

import (
	"repro/internal/buffer"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CostModel carries the per-operation instruction costs. Fields are
// exported so ablation benchmarks can perturb them.
type CostModel struct {
	RowScanIPR    float64 // instructions per nominal row, row-store scan
	ColScanIPR    float64 // instructions per nominal row per column, batch mode
	PredIPR       float64 // per nominal row per predicate evaluation
	SeekInstr     float64 // per index seek (besides per-level page work)
	LevelInstr    float64 // per B-tree level traversed
	InsertInstr   float64 // per row insert (heap part)
	UpdateInstr   float64 // per row update
	HashBuildIPR  float64 // per nominal row inserted into a hash table
	HashProbeIPR  float64 // per nominal row probed
	SortIPR       float64 // per nominal row per merge pass
	AggIPR        float64 // per nominal row aggregated
	ExchangeIPR   float64 // per nominal row crossing an exchange
	WorkerStartNs float64 // parallel worker startup cost
	RowOverheadNs float64 // per-row-operation fixed latch hold
	TupleBytes    int64   // in-memory tuple overhead for hash/sort sizing
	BatchRows     int64   // actual rows per column batch in the vectorized executor

	// Per-statement and per-transaction fixed engine overheads: protocol
	// handling, parse/bind against the plan cache, execution-context
	// setup, commit processing. These dominate short OLTP statements in
	// real engines (tens of thousands of instructions) and are what makes
	// transactional throughput scale with cores rather than saturating on
	// the log device. StmtStallNs is the instruction-fetch/branch stall
	// component of a statement (OLTP code paths are famously front-end
	// stall-bound — Sirin et al., cited by the paper, measure >50% stall
	// cycles); a high stall fraction is also why hyper-threading helps
	// transactional workloads while hurting compute-bound analytics.
	StmtInstr   float64
	StmtStallNs float64
	TxnInstr    float64

	// Engine-metadata working set: every row processed touches shared
	// engine state (batch descriptors, dictionaries, plan and schema
	// caches, lock/latch structures) at MetaTouchPerRow random accesses
	// into a MetaBytes region. This is the hot set that makes tiny LLC
	// allocations disproportionately painful (the paper's knees at small
	// CAT masks) — per-query data structures alone would miss it.
	MetaTouchPerRow float64
	MetaBytes       int64
}

// DefaultCost returns the calibrated cost model.
func DefaultCost() *CostModel {
	return &CostModel{
		RowScanIPR:      35,
		ColScanIPR:      4.5,
		PredIPR:         6,
		SeekInstr:       350,
		LevelInstr:      120,
		InsertInstr:     700,
		UpdateInstr:     450,
		HashBuildIPR:    55,
		HashProbeIPR:    45,
		SortIPR:         30,
		AggIPR:          40,
		ExchangeIPR:     28,
		WorkerStartNs:   250_000,
		RowOverheadNs:   400,
		TupleBytes:      24,
		BatchRows:       1024,
		StmtInstr:       90_000,
		StmtStallNs:     45_000,
		TxnInstr:        140_000,
		MetaTouchPerRow: 0.14,
		MetaBytes:       14 << 20,
	}
}

// Ctx is one worker's execution context: it accumulates CPU work and
// memory stalls locally and flushes them to the machine in bursts, so the
// simulation pays one scheduling event per ~quantum of work rather than
// per row.
type Ctx struct {
	P    *sim.Proc
	Core int
	M    *hw.Machine
	BP   *buffer.Pool
	Ctr  *metrics.Counters
	Cost *CostModel
	RNG  *sim.RNG

	// MetaBase is the shared engine-metadata region (see CostModel).
	MetaBase uint64

	pendingInstr float64
	pendingStall float64
}

// flushThresholdNs is the accumulated-work quantum: roughly the SQLOS
// scheduling quantum, so CPU contention is modelled at realistic
// granularity.
const flushThresholdNs = 200_000

// CPU charges instructions.
func (c *Ctx) CPU(instr float64) {
	c.pendingInstr += instr
	c.maybeFlush()
}

// Stall charges memory stall nanoseconds (from Touch results).
func (c *Ctx) Stall(ns float64) {
	c.pendingStall += ns
	c.maybeFlush()
}

func (c *Ctx) estimateNs() float64 {
	// Rough conversion for the flush heuristic only; Exec computes the
	// real duration.
	return c.pendingInstr*c.Cost.cpiNs() + c.pendingStall
}

func (cm *CostModel) cpiNs() float64 { return 0.33 } // ~0.7 CPI at 2.1+ GHz

func (c *Ctx) maybeFlush() {
	if c.estimateNs() >= flushThresholdNs {
		c.Flush()
	}
}

// Flush executes the pending work on the machine. Call before any
// blocking operation (I/O, lock, latch) so that work and waits interleave
// in the right order.
func (c *Ctx) Flush() {
	if c.pendingInstr <= 0 && c.pendingStall <= 0 {
		return
	}
	instr := int64(c.pendingInstr)
	stall := c.pendingStall
	c.pendingInstr = 0
	c.pendingStall = 0
	c.M.Exec(c.P, c.Core, instr, stall)
}

// TouchSeq charges a sequential memory touch and accumulates its stall.
func (c *Ctx) TouchSeq(base uint64, bytes int64, write bool, mlp float64) {
	c.Stall(c.M.TouchSeq(c.Core, base, bytes, write, mlp))
}

// TouchRandom charges random accesses over a region.
func (c *Ctx) TouchRandom(base uint64, region, count int64, write bool, mlp float64) {
	c.Stall(c.M.TouchRandom(c.Core, base, region, count, write, mlp, c.RNG.Float64))
}

// TouchMeta charges the engine-metadata accesses for processing n
// nominal rows (see CostModel.MetaTouchPerRow).
func (c *Ctx) TouchMeta(rows float64) {
	if c.MetaBase == 0 || c.Cost.MetaTouchPerRow <= 0 {
		return
	}
	n := int64(rows * c.Cost.MetaTouchPerRow)
	if n <= 0 {
		return
	}
	c.TouchRandom(c.MetaBase, c.Cost.MetaBytes, n, false, 2)
}

// WaitIO records an explicit I/O wait (tempdb spills, etc.).
func (c *Ctx) WaitIO(d sim.Duration) {
	metrics.ChargeWait(c.P, c.Ctr, metrics.WaitIO, d)
}
