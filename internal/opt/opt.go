// Package opt implements the engine's cost-based query optimizer.
//
// Queries arrive as logical trees (authored by the workload packages,
// standing in for parsed SQL) annotated with the statistics a real
// optimizer would read from histograms: predicate selectivities and group
// counts. The planner chooses the physical shape the paper studies:
//
//   - scan method (row store vs columnstore),
//   - join algorithm and order (hash join vs index nested loops; build
//     side by estimated cardinality),
//   - serial vs parallel execution — the whole plan is costed at DOP 1
//     and at the offered DOP, and the cheaper wall-time wins, reproducing
//     the paper's observation that small scale factors run serial plans
//     regardless of MAXDOP while large ones flip shape (Figure 7),
//   - the memory grant request (driving Figure 8's spill behaviour).
package opt

import (
	"math"

	"repro/internal/access"
	"repro/internal/exec"
)

// LKind is a logical operator kind.
type LKind int

// Logical operators.
const (
	LScan LKind = iota // table access (planner picks row vs columnstore)
	LJoin
	LAgg
	LSort
	LTop
	LProject
	LFilter
)

// LNode is a logical plan node with optimizer hints.
type LNode struct {
	Kind LKind

	// Label names the query template at the root node (e.g. "tpch.Q14");
	// the engine keys cumulative query statistics by it.
	Label string

	Left  *LNode
	Right *LNode

	// Scan.
	Heap     access.Heap
	CSI      *access.CSI // non-nil if a columnstore index exists
	Index    *access.BTIndex
	Proj     []int
	Pred     exec.Pred
	NPred    int
	PredCols []int
	Sel      float64 // predicate selectivity hint (1 = no filter)
	// Stats and PredRanges, when both set, let the planner estimate the
	// scan selectivity from column histograms instead of the Sel hint
	// (which remains the fallback and covers non-range predicates).
	Stats      *TableStats
	PredRanges []ColRange

	// Join: key ordinals within each child's OUTPUT rows. FK marks an
	// N:1 relationship from Left (many) to Right (one), the common
	// fact-to-dimension join.
	LeftKeys  []int
	RightKeys []int
	JoinType  exec.JoinType
	FK        bool
	// FanOut, when > 0, declares a 1:N join from Left to Right with N =
	// FanOut matches per outer row (e.g. part -> partsupp is 1:4).
	FanOut float64
	// InnerIndex, when set, allows an index nested-loops implementation
	// probing Right's table through this index; InnerProj lists the
	// inner table columns to emit. Only valid when Right is an
	// unfiltered LScan of the index's table whose Proj matches
	// InnerProj — the planner substitutes index probes for the scan.
	InnerIndex *access.BTIndex
	InnerProj  []int

	// Aggregate.
	Groups    []int
	Aggs      []exec.AggSpec
	NGroups   float64 // estimated group count (nominal)
	OutWeight int64   // nominal rows per actual output row after agg (default 1)

	// Sort / Top.
	Keys  []exec.SortKey
	Limit int

	// Project.
	Exprs []func(exec.Row) int64

	Name string
}

// Planner holds the system context the optimizer costs against.
type Planner struct {
	Cost           *access.CostModel
	WorkspaceBytes int64   // total query workspace memory
	GrantFrac      float64 // max grant fraction per query (default 0.25)
	BufferBytes    int64   // buffer pool capacity
	DBBytes        int64   // total database nominal size
	Dop            int     // offered DOP (min of MAXDOP and allowed cores)

	// CostThresholdNs mirrors "cost threshold for parallelism": serial
	// plans cheaper than this never go parallel.
	CostThresholdNs float64
}

// NewPlanner builds a planner with defaults.
func NewPlanner(cost *access.CostModel) *Planner {
	return &Planner{
		Cost:            cost,
		GrantFrac:       0.25,
		Dop:             1,
		CostThresholdNs: 6e8,
	}
}

// PlanInfo reports what the optimizer decided.
type PlanInfo struct {
	Dop        int
	EstCostNs  float64
	GrantBytes int64
	MemNeed    int64
	Shape      string
}

// planned carries per-subtree planning results.
type planned struct {
	node     *exec.Node
	rows     float64 // nominal cardinality estimate
	weight   int64
	rowBytes int64
	costNs   float64 // cumulative wall-ns estimate at the planning DOP
	memNeed  int64   // peak workspace bytes below (inclusive)
}

const cpiNs = 0.33
const seqReadNsPerByte = 1.0 / 2.5 // 2500 MB/s
const randIONs = 90_000

// Plan optimizes a logical tree: it costs the whole query serially and at
// the offered DOP and returns the cheaper physical plan plus its grant.
func (pl *Planner) Plan(q *LNode) (*exec.Node, PlanInfo) {
	serial := pl.planAt(q, 1)
	if pl.Dop <= 1 || serial.costNs < pl.CostThresholdNs {
		return pl.finish(serial, 1)
	}
	par := pl.planAt(q, pl.Dop)
	if par.costNs < serial.costNs {
		return pl.finish(par, pl.Dop)
	}
	return pl.finish(serial, 1)
}

func (pl *Planner) finish(p planned, dop int) (*exec.Node, PlanInfo) {
	grant := pl.grantBytes(p.memNeed)
	return p.node, PlanInfo{
		Dop:        dop,
		EstCostNs:  p.costNs,
		GrantBytes: grant,
		MemNeed:    p.memNeed,
		Shape:      p.node.Shape(),
	}
}

// grantBytes caps the request at the per-query maximum.
func (pl *Planner) grantBytes(need int64) int64 {
	if pl.WorkspaceBytes <= 0 {
		return 0 // unlimited workspace configured
	}
	max := int64(float64(pl.WorkspaceBytes) * pl.GrantFrac)
	if need > max {
		return max
	}
	if need < 1<<20 {
		need = 1 << 20
	}
	return need
}

// coldFrac estimates the fraction of a file's pages that will need I/O.
func (pl *Planner) coldFrac(fileBytes int64) float64 {
	if pl.BufferBytes <= 0 || pl.DBBytes <= pl.BufferBytes {
		return 0.02 // everything warm after steady state
	}
	global := float64(pl.DBBytes-pl.BufferBytes) / float64(pl.DBBytes)
	// Small objects stay cached even under global pressure.
	smallness := float64(fileBytes) * 4 / float64(pl.BufferBytes)
	if smallness > 1 {
		smallness = 1
	}
	return global * smallness
}

func (pl *Planner) planAt(q *LNode, dop int) planned {
	p := pl.plan(q, dop)
	if dop > 1 {
		p.costNs += pl.Cost.WorkerStartNs * float64(dop)
	}
	return p
}

func (pl *Planner) plan(q *LNode, dop int) planned {
	switch q.Kind {
	case LScan:
		return pl.planScan(q, dop)
	case LJoin:
		return pl.planJoin(q, dop)
	case LAgg:
		return pl.planAgg(q, dop)
	case LSort, LTop:
		return pl.planSort(q, dop)
	case LProject:
		return pl.planProject(q, dop)
	case LFilter:
		return pl.planFilter(q, dop)
	default:
		panic("opt: unknown logical kind")
	}
}

func selOf(q *LNode) float64 {
	if q.Sel <= 0 || q.Sel > 1 {
		return 1
	}
	return q.Sel
}

func (pl *Planner) planScan(q *LNode, dop int) planned {
	t := q.Heap.T
	nominal := float64(t.NominalRows())
	sel := selOf(q)
	if q.Stats != nil && len(q.PredRanges) > 0 {
		sel = q.Stats.SelOfRanges(q.PredRanges)
		if q.Sel > 0 && q.Sel < 1 {
			// Residual non-range predicates keep their hinted factor.
			extra := q.Sel / max(sel, 1e-9)
			if extra < 1 {
				sel *= extra
			}
		}
	}
	outRows := nominal * sel
	rowBytes := int64(len(q.Proj))*8 + 8
	var node *exec.Node
	var cpuNs, ioNs float64
	if q.CSI != nil {
		node = &exec.Node{
			Kind: exec.KColScan, CSI: q.CSI, Proj: q.Proj,
			Pred: q.Pred, NPred: q.NPred, PredCols: q.PredCols,
			Weight: t.K, Name: q.Name,
		}
		cols := float64(len(q.Proj) + len(q.PredCols))
		ioBytes := float64(q.CSI.Ix.NominalBytes()) * cols / float64(len(q.CSI.Ix.Cols)+1)
		cpuNs = nominal * cols * pl.Cost.ColScanIPR * cpiNs
		ioNs = ioBytes * seqReadNsPerByte * pl.coldFrac(q.CSI.Ix.File.Bytes())
	} else {
		node = &exec.Node{
			Kind: exec.KRowScan, Heap: q.Heap, Proj: q.Proj,
			Pred: q.Pred, NPred: q.NPred, Weight: t.K, Name: q.Name,
		}
		cpuNs = nominal * (pl.Cost.RowScanIPR + float64(q.NPred)*pl.Cost.PredIPR) * cpiNs
		ioNs = float64(t.NominalDataBytes()) * seqReadNsPerByte * pl.coldFrac(t.NominalDataBytes())
	}
	node.EstRows = outRows
	node.RowBytes = rowBytes
	node.Parallel = dop > 1
	// CPU parallelizes across workers; sequential scan I/O is limited by
	// the shared device bandwidth and does not speed up with DOP.
	return planned{node: node, rows: outRows, weight: t.K, rowBytes: rowBytes,
		costNs: cpuNs/float64(dop) + ioNs}
}

func (pl *Planner) planJoin(q *LNode, dop int) planned {
	left := pl.plan(q.Left, dop)
	right := pl.plan(q.Right, dop)

	outRows := joinCard(q, left.rows, right.rows)
	outWeight := left.weight
	if right.weight > outWeight {
		outWeight = right.weight
	}
	outBytes := left.rowBytes + right.rowBytes

	// Candidate 1: hash join. The logical output contract is Left's
	// columns ++ Right's columns (Left only for semi/anti); the executor
	// emits probe ++ build, so building on the Right needs no reorder.
	// For inner joins the smaller side builds; a build on the Left gets a
	// reordering projection on top.
	buildIsLeft := q.JoinType == exec.InnerJoin && left.rows < right.rows
	build, probe := right, left
	buildKeys, probeKeys := q.RightKeys, q.LeftKeys
	if buildIsLeft {
		build, probe = left, right
		buildKeys, probeKeys = q.LeftKeys, q.RightKeys
	}
	buildBytes := int64(build.rows * float64(build.rowBytes+pl.Cost.TupleBytes))
	grant := pl.grantBytes(buildBytes)
	spillBytes := int64(0)
	if grant > 0 && buildBytes > grant {
		spillBytes = buildBytes - grant
	}
	hashCost := left.costNs + right.costNs +
		(build.rows*pl.Cost.HashBuildIPR+probe.rows*pl.Cost.HashProbeIPR)*cpiNs/float64(dop) +
		float64(2*spillBytes)*seqReadNsPerByte

	hashNode := &exec.Node{
		Kind: exec.KHashJoin,
		Left: build.node, Right: probe.node,
		BuildKeys: buildKeys, ProbeKeys: probeKeys,
		JoinType: q.JoinType,
		EstRows:  outRows, Weight: outWeight, RowBytes: outBytes,
		Parallel: dop > 1, Name: q.Name,
	}
	var hashRoot *exec.Node = hashNode
	if buildIsLeft {
		// Executor emits probe(Right) ++ build(Left); restore L ++ R.
		lw, rw := outputWidth(q.Left), outputWidth(q.Right)
		perm := make([]int, 0, lw+rw)
		for i := 0; i < lw; i++ {
			perm = append(perm, rw+i)
		}
		for i := 0; i < rw; i++ {
			perm = append(perm, i)
		}
		hashRoot = &exec.Node{
			Kind: exec.KProject, Left: hashNode,
			Exprs:   permExprs(perm),
			EstRows: outRows, Weight: outWeight, RowBytes: outBytes,
			Parallel: hashNode.Parallel, Name: "reorder",
		}
	}
	hashMem := max(max(left.memNeed, right.memNeed), buildBytes)

	best := planned{node: hashRoot, rows: outRows, weight: outWeight,
		rowBytes: outBytes, costNs: hashCost, memNeed: hashMem}

	// Candidate 2: index nested loops (outer = Left) when an index on the
	// inner table exists. Output is Left ++ InnerProj, which the query
	// author keeps aligned with Right's projection, so no reorder.
	if q.InnerIndex != nil {
		ix := q.InnerIndex
		seekNs := (pl.Cost.SeekInstr + float64(ix.Geom().Height())*pl.Cost.LevelInstr) * cpiNs
		cold := pl.coldFrac(ix.Table.NominalDataBytes())
		perProbeIO := cold * randIONs
		// Per-probe CPU divides by DOP. Random I/O overlaps through
		// per-worker prefetch queues (depth ~4 on NVMe), so total
		// overlap grows with the worker count — the mechanism that makes
		// a cold nested-loops plan unattractive serially but the winner
		// at high DOP (Figure 7's plan flip).
		overlap := 4 * float64(dop)
		if overlap > 128 {
			overlap = 128
		}
		nlCost := left.costNs +
			left.rows*seekNs/float64(dop) +
			left.rows*perProbeIO/overlap
		if nlCost < best.costNs {
			nlNode := &exec.Node{
				Kind: exec.KNLIndexJoin,
				Left: left.node, Index: ix,
				OuterKeys: q.LeftKeys, InnerProj: q.InnerProj,
				JoinType: q.JoinType,
				EstRows:  outRows, Weight: outWeight,
				RowBytes: left.rowBytes + int64(len(q.InnerProj))*8,
				Parallel: dop > 1, Name: q.Name,
			}
			best = planned{node: nlNode, rows: outRows, weight: outWeight,
				rowBytes: nlNode.RowBytes, costNs: nlCost, memNeed: left.memNeed}
		}
	}
	return best
}

func permExprs(perm []int) []func(exec.Row) int64 {
	out := make([]func(exec.Row) int64, len(perm))
	for i, p := range perm {
		p := p
		out[i] = func(r exec.Row) int64 { return r[p] }
	}
	return out
}

// outputWidth computes the logical node's output column count.
func outputWidth(q *LNode) int {
	switch q.Kind {
	case LScan:
		return len(q.Proj)
	case LJoin:
		if q.JoinType != exec.InnerJoin {
			return outputWidth(q.Left)
		}
		if q.InnerIndex != nil {
			// May be planned as NL (Left ++ InnerProj) or hash (L ++ R);
			// both have the same width when InnerProj mirrors Right.Proj.
			return outputWidth(q.Left) + len(q.InnerProj)
		}
		return outputWidth(q.Left) + outputWidth(q.Right)
	case LAgg:
		return len(q.Groups) + len(q.Aggs)
	case LSort, LTop, LFilter:
		return outputWidth(q.Left)
	case LProject:
		return len(q.Exprs)
	}
	return 0
}

func joinCard(q *LNode, l, r float64) float64 {
	switch q.JoinType {
	case exec.SemiJoin:
		return l * 0.5
	case exec.AntiJoin:
		return l * 0.5
	default:
		if q.FanOut > 0 {
			return l * q.FanOut
		}
		if q.FK {
			return l
		}
		if r == 0 || l == 0 {
			return 0
		}
		return l * r / math.Max(math.Min(l, r), 1)
	}
}

func (pl *Planner) planAgg(q *LNode, dop int) planned {
	child := pl.plan(q.Left, dop)
	groups := q.NGroups
	if groups <= 0 {
		groups = math.Sqrt(child.rows) + 1
	}
	if groups > child.rows {
		groups = child.rows
	}
	w := q.OutWeight
	if w < 1 {
		w = 1
	}
	rowBytes := int64(len(q.Groups)+len(q.Aggs))*8 + 8
	memNeed := int64(groups * float64(rowBytes+pl.Cost.TupleBytes))
	hashNode := &exec.Node{
		Kind: exec.KHashAgg, Left: child.node,
		Groups: q.Groups, Aggs: q.Aggs,
		EstRows: groups, Weight: w, RowBytes: rowBytes,
		Parallel: dop > 1, Name: q.Name,
	}
	grant := pl.grantBytes(memNeed)
	hashSpill := int64(0)
	if grant > 0 && memNeed > grant {
		hashSpill = memNeed - grant
	}
	hashCost := child.costNs + child.rows*pl.Cost.AggIPR*cpiNs/float64(dop) +
		float64(2*hashSpill)*seqReadNsPerByte
	return planned{node: hashNode, rows: groups, weight: w, rowBytes: rowBytes,
		costNs: hashCost, memNeed: max(child.memNeed, memNeed)}
}

func (pl *Planner) planSort(q *LNode, dop int) planned {
	child := pl.plan(q.Left, dop)
	kind := exec.KSort
	if q.Kind == LTop {
		kind = exec.KTop
	}
	memNeed := int64(child.rows * float64(child.rowBytes+pl.Cost.TupleBytes))
	if q.Kind == LTop {
		memNeed = int64(q.Limit+1) * (child.rowBytes + pl.Cost.TupleBytes)
	}
	node := &exec.Node{
		Kind: kind, Left: child.node,
		Keys: q.Keys, Limit: q.Limit,
		EstRows: child.rows, Weight: child.weight, RowBytes: child.rowBytes,
		Parallel: dop > 1, Name: q.Name,
	}
	n := math.Max(child.rows, 2)
	cost := child.costNs + child.rows*pl.Cost.SortIPR*math.Log2(n)*cpiNs/float64(dop)
	return planned{node: node, rows: child.rows, weight: child.weight,
		rowBytes: child.rowBytes, costNs: cost, memNeed: max(child.memNeed, memNeed)}
}

func (pl *Planner) planFilter(q *LNode, dop int) planned {
	child := pl.plan(q.Left, dop)
	rows := child.rows * selOf(q)
	node := &exec.Node{
		Kind: exec.KFilter, Left: child.node,
		Pred: q.Pred, NPred: q.NPred,
		EstRows: rows, Weight: child.weight, RowBytes: child.rowBytes,
		Parallel: dop > 1, Name: q.Name,
	}
	cost := child.costNs + child.rows*float64(max(q.NPred, 1))*pl.Cost.PredIPR*cpiNs/float64(dop)
	return planned{node: node, rows: rows, weight: child.weight,
		rowBytes: child.rowBytes, costNs: cost, memNeed: child.memNeed}
}

func (pl *Planner) planProject(q *LNode, dop int) planned {
	child := pl.plan(q.Left, dop)
	rowBytes := int64(len(q.Exprs))*8 + 8
	node := &exec.Node{
		Kind: exec.KProject, Left: child.node, Exprs: q.Exprs,
		EstRows: child.rows, Weight: child.weight, RowBytes: rowBytes,
		Parallel: dop > 1, Name: q.Name,
	}
	return planned{node: node, rows: child.rows, weight: child.weight,
		rowBytes: rowBytes, costNs: child.costNs, memNeed: child.memNeed}
}
