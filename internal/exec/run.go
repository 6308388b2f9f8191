package exec

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/sim"
)

// Run executes a physical plan and returns its result rows and stats.
// It blocks the calling proc (the session) until the query completes.
// Env.Vectorized selects the batch engine; both engines produce
// row-identical results.
func Run(p *sim.Proc, env *Env, root *Node) ([]Row, QueryStats) {
	st := QueryStats{GrantBytes: grantBytes(env.Grant)}
	var rows []Row
	if env.Vectorized {
		rows = batchesToRows(runNodeVec(p, env, root, &st))
	} else {
		rows = runNode(p, env, root, &st)
	}
	st.OutRows = len(rows)
	st.UsedBytes = env.Grant.Used()
	// Collect failures: the coordinator's own sticky error plus anything
	// workers deposited via noteFail. A killed or failed query yields no
	// rows; the failure is re-deposited on the coordinator proc for the
	// engine to surface as a typed QueryError.
	if err := p.TakeFail(); err != nil {
		env.noteFail(err)
	}
	st.Killed = env.killed
	if env.ioErr != nil {
		p.SetFail(env.ioErr)
	}
	if env.killed || env.ioErr != nil {
		rows = nil
		st.OutRows = 0
	}
	return rows, st
}

func grantBytes(g *Grant) int64 {
	if g == nil {
		return 0
	}
	return g.Bytes
}

// runNode dispatches one plan node, opening a trace span around it when
// the query is being traced. Only the coordinator proc walks the plan
// tree, so span nesting follows call nesting exactly.
func runNode(p *sim.Proc, env *Env, n *Node, st *QueryStats) []Row {
	if env.expired(p.Now()) {
		return nil
	}
	if env.Trace == nil {
		return execNode(p, env, n, st)
	}
	sp := env.Trace.Enter(n.Kind.String(), n.Name, n.Parallel, n.EstRows, p.Now())
	rows := execNode(p, env, n, st)
	env.Trace.Exit(sp, int64(len(rows)), int64(len(rows))*n.Weight, p.Now())
	return rows
}

func execNode(p *sim.Proc, env *Env, n *Node, st *QueryStats) []Row {
	switch n.Kind {
	case KRowScan:
		return runRowScan(p, env, n)
	case KColScan:
		return runColScan(p, env, n)
	case KHashJoin:
		build := runNode(p, env, n.Left, st)
		probe := runNode(p, env, n.Right, st)
		return runHashJoin(p, env, n, st, build, probe)
	case KNLIndexJoin:
		outer := runNode(p, env, n.Left, st)
		return runNLIndexJoin(p, env, n, st, outer)
	case KHashAgg:
		in := runNode(p, env, n.Left, st)
		return runHashAgg(p, env, n, st, in)
	case KSort:
		in := runNode(p, env, n.Left, st)
		return runSort(p, env, n, st, in)
	case KTop:
		in := runNode(p, env, n.Left, st)
		return runTop(p, env, n, st, in)
	case KFilter:
		in := runNode(p, env, n.Left, st)
		return runFilter(p, env, n, in)
	case KProject:
		in := runNode(p, env, n.Left, st)
		return runProject(p, env, n, in)
	default:
		panic(fmt.Sprintf("exec: unknown node kind %v", n.Kind))
	}
}

// stageDop returns the partition count for a node: parallel nodes use the
// plan DOP, serial nodes 1.
func stageDop(env *Env, n *Node) int {
	if !n.Parallel {
		return 1
	}
	return env.EffectiveDop()
}

func project(row Row, proj []int) Row {
	out := make(Row, len(proj))
	for i, c := range proj {
		out[i] = row[c]
	}
	return out
}

func runRowScan(p *sim.Proc, env *Env, n *Node) []Row {
	t := n.Heap.T
	total := t.ActualRows()
	parts := stageDop(env, n)
	results := make([][]Row, parts)
	chunk := (total + int64(parts) - 1) / int64(parts)
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		lo := int64(part) * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if lo >= hi {
			return
		}
		n.Heap.ChargeScan(ctx, lo*t.K, (hi-lo)*t.K, n.NPred)
		var out []Row
		buf := make(Row, t.NCols())
		for r := lo; r < hi; r++ {
			row := t.Row(r, buf)
			if n.Pred != nil && !n.Pred(row) {
				continue
			}
			out = append(out, project(row, n.Proj))
		}
		if parts > 1 {
			ctx.CPU(float64(int64(len(out))*n.Weight) * ctx.Cost.ExchangeIPR)
		}
		results[part] = out
	})
	return flatten(results)
}

func runColScan(p *sim.Proc, env *Env, n *Node) []Row {
	csi := n.CSI
	ix := csi.Ix
	segs := ix.Segments()
	// Map projection and predicate columns to index column positions.
	needCols := map[int]bool{}
	for _, c := range n.Proj {
		needCols[c] = true
	}
	if n.PredCols != nil {
		for _, c := range n.PredCols {
			needCols[c] = true
		}
	}
	var colPoss []int
	colOfPos := map[int]int{}
	for tc := range needCols {
		cp := ix.ColPos(tc)
		if cp < 0 {
			panic(fmt.Sprintf("exec: column %d not in columnstore %s", tc, ix.File.Name))
		}
		colPoss = append(colPoss, cp)
		colOfPos[tc] = cp
	}
	sort.Ints(colPoss)
	// COUNT(*)-shaped plans project no columns and filter on none;
	// segment row counts then come from the index's first column.
	countPos := 0
	if len(colPoss) > 0 {
		countPos = colPoss[0]
	}

	parts := segs
	if parts == 0 {
		parts = 1
	}
	results := make([][]Row, parts+1)
	env.parallel(p, parts, func(ctx *access.Ctx, seg int) {
		if segs == 0 {
			return
		}
		// Decode the needed columns of this segment.
		decoded := map[int][]int64{}
		for _, cp := range colPoss {
			csi.ChargeSegmentScan(ctx, cp, seg, n.NPred)
			decoded[cp] = ix.Segment(cp, seg).Decode(nil)
		}
		nrows := ix.Segment(countPos, seg).N
		var out []Row
		row := make(Row, ix.Table.NCols())
		for r := 0; r < nrows; r++ {
			// Materialize only the needed columns into a sparse row.
			for tc, cp := range colOfPos {
				row[tc] = decoded[cp][r]
			}
			if n.Pred != nil && !n.Pred(row) {
				continue
			}
			out = append(out, project(row, n.Proj))
		}
		if parts > 1 {
			ctx.CPU(float64(int64(len(out))*n.Weight) * ctx.Cost.ExchangeIPR)
		}
		results[seg] = out
	})
	// Delta store scan (trickle inserts not yet compressed), serial.
	if ix.DeltaNominalRows() > 0 {
		ctx := env.newCtx(p, env.home())
		csi.ChargeDeltaScan(ctx)
		ctx.Flush()
		var out []Row
		row := make(Row, ix.Table.NCols())
		for _, dr := range ix.DeltaRows() {
			for i := range row {
				row[i] = 0
			}
			for pos, tc := range ix.Cols {
				if pos < len(dr) {
					row[tc] = dr[pos]
				}
			}
			if n.Pred != nil && !n.Pred(row) {
				continue
			}
			out = append(out, project(row, n.Proj))
		}
		results[parts] = out
	}
	return flatten(results)
}

func runFilter(p *sim.Proc, env *Env, n *Node, in []Row) []Row {
	ctx := env.newCtx(p, env.home())
	ctx.CPU(float64(int64(len(in))*n.Weight) * ctx.Cost.PredIPR * float64(maxInt(n.NPred, 1)))
	ctx.Flush()
	var out []Row
	for _, r := range in {
		if n.Pred == nil || n.Pred(r) {
			out = append(out, r)
		}
	}
	return out
}

func runProject(p *sim.Proc, env *Env, n *Node, in []Row) []Row {
	ctx := env.newCtx(p, env.home())
	ctx.CPU(float64(int64(len(in))*n.Weight) * float64(len(n.Exprs)) * 2)
	ctx.Flush()
	out := make([]Row, len(in))
	for i, r := range in {
		nr := make(Row, len(n.Exprs))
		for j, e := range n.Exprs {
			nr[j] = e(r)
		}
		out[i] = nr
	}
	return out
}

func flatten(parts [][]Row) []Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Row, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
