package exec

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/access"
	"repro/internal/sim"
)

// This file is the executor: operators consume and produce
// column-vector batches (vec.go) instead of materialized []Row, and
// charge CPU, buffer-pool pages, metadata touches and deadline checks
// per batch. Operator-region LLC touches (TouchSeq/TouchRandom) stay at
// partition granularity — the cache model samples coarse streaming
// touches (see access.ScanCursor). The row-at-a-time engine this
// replaced lives in rowengine_test.go as the differential oracle: same
// cost model, row-identical output in the same order.
//
// Index nested-loop join walks rows by design: one index probe per
// outer row is the operator, so its body (runNLIndexJoin) runs between
// a batchesToRows and a rowsToBatches, one materialization at the
// operator boundary.

// runNodeVec dispatches one plan node, opening a trace span around it
// when the query is being traced; the span records rows and emitted
// batches. Only the coordinator proc walks the plan tree, so span
// nesting follows call nesting exactly.
func runNodeVec(p *sim.Proc, env *Env, n *Node, st *QueryStats) []*Batch {
	if env.expired(p.Now()) {
		return nil
	}
	if env.Trace == nil {
		out := execNodeVec(p, env, n, st)
		st.Batches += len(out)
		return out
	}
	sp := env.Trace.Enter(n.Kind.String(), n.Name, n.Parallel, n.EstRows, p.Now())
	out := execNodeVec(p, env, n, st)
	st.Batches += len(out)
	sp.Batches = int64(len(out))
	rows := int64(batchRowCount(out))
	env.Trace.Exit(sp, rows, rows*n.Weight, p.Now())
	return out
}

func execNodeVec(p *sim.Proc, env *Env, n *Node, st *QueryStats) []*Batch {
	switch n.Kind {
	case KRowScan:
		return vecRowScan(p, env, n)
	case KColScan:
		return vecColScan(p, env, n)
	case KHashJoin:
		build := runNodeVec(p, env, n.Left, st)
		probe := runNodeVec(p, env, n.Right, st)
		return vecHashJoin(p, env, n, st, build, probe)
	case KNLIndexJoin:
		outer := batchesToRows(runNodeVec(p, env, n.Left, st))
		return rowsToBatches(runNLIndexJoin(p, env, n, st, outer), batchSize(env))
	case KHashAgg:
		in := runNodeVec(p, env, n.Left, st)
		return vecHashAgg(p, env, n, st, in)
	case KSort:
		in := runNodeVec(p, env, n.Left, st)
		return vecSort(p, env, n, st, in)
	case KTop:
		in := runNodeVec(p, env, n.Left, st)
		return vecTop(p, env, n, in)
	case KFilter:
		in := runNodeVec(p, env, n.Left, st)
		return vecFilter(p, env, n, in)
	case KProject:
		in := runNodeVec(p, env, n.Left, st)
		return vecProject(p, env, n, in)
	default:
		panic(fmt.Sprintf("exec: unknown node kind %v", n.Kind))
	}
}

// vecRowScan scans the heap in batch-sized nominal ranges. Without a
// predicate it bulk-copies projected column ranges straight out of the
// column-major table storage and never materializes a row.
func vecRowScan(p *sim.Proc, env *Env, n *Node) []*Batch {
	t := n.Heap.T
	total := t.ActualRows()
	parts := stageDop(env, n)
	size := batchSize(env)
	results := make([][]*Batch, parts)
	chunk := (total + int64(parts) - 1) / int64(parts)
	srcCols := make([][]int64, len(n.Proj))
	for i, c := range n.Proj {
		srcCols[i] = t.Col(c)
	}
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		lo := int64(part) * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if lo >= hi {
			return
		}
		cur := n.Heap.NewScanCursor(n.NPred)
		expect := int(hi - lo) // a predicate-free scan emits its whole range
		var buf Row
		if n.Pred != nil {
			buf = make(Row, t.NCols())
			expect = 0
		}
		bb := newBatchBuilder(len(n.Proj), size, expect)
		for blo := lo; blo < hi; blo += int64(size) {
			if env.expired(ctx.P.Now()) {
				break
			}
			bhi := blo + int64(size)
			if bhi > hi {
				bhi = hi
			}
			cur.ChargeRows(ctx, blo*t.K, (bhi-blo)*t.K)
			if n.Pred == nil {
				bb.appendSrcRange(srcCols, int(blo), int(bhi))
				continue
			}
			for r := blo; r < bhi; r++ {
				row := t.Row(r, buf)
				if !n.Pred(row) {
					continue
				}
				dst, i := bb.room()
				for c, tc := range n.Proj {
					dst.Cols[c][i] = row[tc]
				}
			}
		}
		cur.Close(ctx)
		if parts > 1 {
			ctx.CPU(float64(int64(bb.rows)*n.Weight) * ctx.Cost.ExchangeIPR)
		}
		results[part] = bb.finish()
	})
	return flattenBatches(results)
}

// vecColScan decodes each needed column segment in batch-sized row
// ranges (colstore.DecodeRange). The predicate-free path decodes each
// range straight into its output batch, which is sized to the segment;
// a predicate is evaluated over scratch vectors each worker reuses
// across its segments. Every segment's cursors are cut from one slab.
func vecColScan(p *sim.Proc, env *Env, n *Node) []*Batch {
	csi := n.CSI
	ix := csi.Ix
	segs := ix.Segments()
	size := batchSize(env)
	// colPoss are the needed columns' positions in the index, ascending;
	// needCols[i] is the table column at colPoss[i], and projAt[c] is the
	// index into colPoss of projected column c.
	var colPoss []int
	for _, tc := range slices.Concat(n.Proj, n.PredCols) {
		cp := ix.ColPos(tc)
		if cp < 0 {
			panic(fmt.Sprintf("exec: column %d not in columnstore %s", tc, ix.File.Name))
		}
		colPoss = append(colPoss, cp)
	}
	slices.Sort(colPoss)
	colPoss = slices.Compact(colPoss)
	needCols := make([]int, len(colPoss))
	for i, cp := range colPoss {
		needCols[i] = ix.Cols[cp]
	}
	projAt := make([]int, len(n.Proj))
	for c, tc := range n.Proj {
		projAt[c], _ = slices.BinarySearch(colPoss, ix.ColPos(tc))
	}
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
	results := make([][]*Batch, parts+1)
	curs := make([]access.SegScanCursor, segs*len(colPoss))
	// A worker's sparse row and decoded vectors (dec[i] is column
	// colPoss[i]), reused across the segments it runs in turn.
	type scratch struct {
		row Row
		dec [][]int64
	}
	scr := make([]scratch, env.workers(parts))
	env.parallel(p, parts, func(ctx *access.Ctx, w, seg int) {
		if segs == 0 {
			return
		}
		nrows := ix.Segment(countPos, seg).N
		cs := curs[seg*len(colPoss) : (seg+1)*len(colPoss)]
		for i, cp := range colPoss {
			cs[i] = csi.NewSegScanCursor(cp, seg, n.NPred)
		}
		expect := nrows // a predicate-free scan emits the whole segment
		sc := &scr[w]
		if n.Pred != nil {
			if sc.row == nil {
				sc.row = make(Row, ix.Table.NCols())
				sc.dec = make([][]int64, len(colPoss))
			}
			expect = 0
		}
		bb := newBatchBuilder(len(n.Proj), size, expect)
		for lo := 0; lo < nrows; lo += size {
			if env.expired(ctx.P.Now()) {
				break
			}
			hi := lo + size
			if hi > nrows {
				hi = nrows
			}
			for i := range cs {
				cs[i].ChargeRows(ctx, lo, hi)
			}
			if n.Pred == nil {
				for r := lo; r < hi; {
					b, i, k := bb.reserve(hi - r)
					for c, at := range projAt {
						ix.Segment(colPoss[at], seg).DecodeRange(r, r+k, b.Cols[c][i:i+k])
					}
					r += k
				}
				continue
			}
			for i, cp := range colPoss {
				sc.dec[i] = ix.Segment(cp, seg).DecodeRange(lo, hi, sc.dec[i])
			}
			for r := 0; r < hi-lo; r++ {
				// Materialize only the needed columns into a sparse row.
				for i, tc := range needCols {
					sc.row[tc] = sc.dec[i][r]
				}
				if !n.Pred(sc.row) {
					continue
				}
				dst, i := bb.room()
				for c, at := range projAt {
					dst.Cols[c][i] = sc.dec[at][r]
				}
			}
		}
		for i := range cs {
			cs[i].Close(ctx)
		}
		if parts > 1 {
			ctx.CPU(float64(int64(bb.rows)*n.Weight) * ctx.Cost.ExchangeIPR)
		}
		results[seg] = bb.finish()
	})
	// Delta store scan (trickle inserts not yet compressed), serial.
	if ix.DeltaNominalRows() > 0 {
		ctx := env.newCtx(p, env.home())
		csi.ChargeDeltaScan(ctx)
		ctx.Flush()
		bb := newBatchBuilder(len(n.Proj), size, 0)
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
			dst, i := bb.room()
			for c, tc := range n.Proj {
				dst.Cols[c][i] = row[tc]
			}
		}
		results[parts] = bb.finish()
	}
	return flattenBatches(results)
}

// vecFilter attaches a selection vector instead of copying survivors.
func vecFilter(p *sim.Proc, env *Env, n *Node, in []*Batch) []*Batch {
	ctx := env.newCtx(p, env.home())
	out := make([]*Batch, 0, len(in))
	var scratch Row
	for _, b := range in {
		ctx.CPU(float64(int64(b.Rows())*n.Weight) * ctx.Cost.PredIPR * float64(max(n.NPred, 1)))
		if n.Pred == nil {
			out = append(out, b)
			continue
		}
		if scratch == nil {
			scratch = make(Row, b.Width())
		}
		var sel []int32
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			for c := range b.Cols {
				scratch[c] = b.Cols[c][ph]
			}
			if n.Pred(scratch) {
				sel = append(sel, ph)
			}
		}
		switch {
		case len(sel) == 0:
			// Fully filtered: drop the batch.
		case len(sel) == b.Rows() && b.Sel == nil:
			out = append(out, b)
		default:
			out = append(out, &Batch{Cols: b.Cols, Sel: sel, n: b.n})
		}
	}
	ctx.Flush()
	return out
}

// vecProject evaluates scalar expressions into fresh output batches.
func vecProject(p *sim.Proc, env *Env, n *Node, in []*Batch) []*Batch {
	ctx := env.newCtx(p, env.home())
	bb := newBatchBuilder(len(n.Exprs), batchSize(env), batchRowCount(in))
	var scratch Row
	for _, b := range in {
		ctx.CPU(float64(int64(b.Rows())*n.Weight) * float64(len(n.Exprs)) * 2)
		if scratch == nil && b.Width() > 0 {
			scratch = make(Row, b.Width())
		}
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			for c := range b.Cols {
				scratch[c] = b.Cols[c][ph]
			}
			dst, di := bb.room()
			for j, e := range n.Exprs {
				dst.Cols[j][di] = e(scratch)
			}
		}
	}
	ctx.Flush()
	return bb.finish()
}

// vecHashAgg aggregates the child's output in one host pass
// (aggregate); the parallel stage only charges each partition its rows
// and groups, and the coordinator emits groups in sorted group order.
// Aggregate inputs are weighted by the child's nominal weight so
// SUM/COUNT reflect nominal cardinalities.
func vecHashAgg(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []*Batch) []*Batch {
	parts := stageDop(env, n)
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}

	at, rows, groups := aggregate(in, n, parts, weight)
	ran := make([]bool, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		w := rows[part] * weight
		ctx.CPU(float64(w) * ctx.Cost.AggIPR)
		groupBytes := groups[part] * tupleBytes(env, n.Left)
		if groupBytes > 0 {
			region := env.M.ReserveRegion(groupBytes)
			ctx.TouchRandom(region, groupBytes, w, true, 4)
		}
		ran[part] = true
	})

	// A partition the deadline skipped adds no charge and no groups.
	live := at.live(ran)
	totalGroups := int64(len(live))
	needBytes := totalGroups * tupleBytes(env, n.Left)
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		spill(p, env, n, st, overflow, 0)
	}

	ctx := env.newCtx(p, env.home())
	ctx.CPU(float64(totalGroups) * ctx.Cost.AggIPR)
	ctx.Flush()
	return at.emit(live, batchSize(env))
}

// vecJoinTable is the hash join's table over the columnar build rows:
// the rows compacted into one colset, head mapping a key hash to its
// first row and next chaining each row to the following one of the same
// hash (-1 ends a chain).
type vecJoinTable struct {
	*colset
	head map[uint64]int32
	next []int32
}

// newVecJoinTable builds the table over the build side and counts the
// rows of each of parts hash partitions: rows[p] holds the build rows
// whose key hash is p modulo parts. The chains are linked from the last
// row to the first, so walking one from head visits its rows in build
// order.
func newVecJoinTable(bs []*Batch, keys []int, parts int) (*vecJoinTable, []int64) {
	jt := &vecJoinTable{colset: concatBatches(bs)}
	jt.head = make(map[uint64]int32, jt.n)
	jt.next = make([]int32, jt.n)
	rows := make([]int64, parts)
	for r := int32(jt.n) - 1; r >= 0; r-- {
		h := hashCols(jt.cols, keys, r)
		rows[h%uint64(parts)]++
		nx, ok := jt.head[h]
		if !ok {
			nx = -1
		}
		jt.next[r] = nx
		jt.head[h] = r
	}
	return jt, rows
}

// first returns the first build row whose key hash is h, or -1.
func (jt *vecJoinTable) first(h uint64) int32 {
	if r, ok := jt.head[h]; ok {
		return r
	}
	return -1
}

// keysEqualColsAt compares key columns of two columnar rows.
func keysEqualColsAt(acols [][]int64, ak []int, ai int32, bcols [][]int64, bk []int, bi int32) bool {
	for i := range ak {
		if acols[ak[i]][ai] != bcols[bk[i]][bi] {
			return false
		}
	}
	return true
}

// probe runs the probe side through the table once, in input order, and
// writes each probe row's output to the builder of the partition its key
// hash picks (modulo parts). Rows of one hash share a partition, so each
// partition's output is what a table over its own build rows would give,
// in input order; inner matches are gathered column-wise into
// probe++build rows. rows[p] counts partition p's probe rows.
func (jt *vecJoinTable) probe(n *Node, probe []*Batch, parts, size int) ([]*batchBuilder, []int64) {
	probeW := batchWidth(probe)
	outW := probeW
	if n.JoinType == InnerJoin {
		outW += len(jt.cols)
	}
	out := make([]*batchBuilder, parts)
	for part := range out {
		out[part] = newBatchBuilder(outW, size, 0)
	}
	rows := make([]int64, parts)
	for _, b := range probe {
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			h := hashCols(b.Cols, n.ProbeKeys, ph)
			part := h % uint64(parts)
			rows[part]++
			bb := out[part]
			matched := false
			for bi := jt.first(h); bi >= 0; bi = jt.next[bi] {
				if !keysEqualColsAt(jt.cols, n.BuildKeys, bi, b.Cols, n.ProbeKeys, ph) {
					continue
				}
				matched = true
				if n.JoinType != InnerJoin {
					break
				}
				dst, di := bb.room()
				for c := 0; c < probeW; c++ {
					dst.Cols[c][di] = b.Cols[c][ph]
				}
				for c, col := range jt.cols {
					dst.Cols[probeW+c][di] = col[bi]
				}
			}
			if (n.JoinType == SemiJoin && matched) || (n.JoinType == AntiJoin && !matched) {
				bb.appendBatchRow(b, ph)
			}
		}
	}
	return out, rows
}

// vecHashJoin joins on the host once: one table over the build (left)
// side, which stays columnar, and one probe pass with the right side.
// The two parallel stages only charge each hash partition its build and
// probe rows; a partition emits its output only if the deadline left
// both of its stages to run. Exceeding the memory grant spills
// partitions to tempdb (charged as write+read of the spilled nominal
// bytes).
func vecHashJoin(p *sim.Proc, env *Env, n *Node, st *QueryStats, build, probe []*Batch) []*Batch {
	rowBytes := tupleBytes(env, n.Left)
	needBytes := int64(batchRowCount(build)) * n.Left.Weight * rowBytes
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		probeBytes := int64(batchRowCount(probe)) * n.Right.Weight * tupleBytes(env, n.Right)
		spill(p, env, n, st, overflow, probeSpillShare(overflow, needBytes, probeBytes))
	}

	region := env.M.ReserveRegion(needBytes + 1)
	parts := stageDop(env, n)
	share := max(needBytes/int64(parts), 1)
	jt, buildRows := newVecJoinTable(build, n.BuildKeys, parts)
	out, probeRows := jt.probe(n, probe, parts, batchSize(env))

	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		w := buildRows[part] * n.Left.Weight
		ctx.CPU(float64(w) * ctx.Cost.HashBuildIPR)
		ctx.TouchRandom(region+uint64(part)*uint64(share), share, w, true, 4)
	})
	// A deadline that skips a build partition has latched env.killed, so
	// the probe stage then runs no partition at all.
	results := make([][]*Batch, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		w := probeRows[part] * n.Right.Weight
		ctx.CPU(float64(w) * ctx.Cost.HashProbeIPR)
		ctx.TouchRandom(region+uint64(part)*uint64(share), share, w, false, 4)
		results[part] = out[part].finish()
	})
	return flattenBatches(results)
}

// vecSort sorts a permutation over the compacted input instead of
// swapping rows. The parallel stage charges each worker the sort of its
// contiguous chunk and the coordinator the merge of the chunks; one
// stable sort of the permutation gives the order they reach, the stable
// sort of the input at any DOP. Input larger than the grant spills sort
// runs to tempdb.
func vecSort(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []*Batch) []*Batch {
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}
	cs := concatBatches(in)
	total := cs.n
	needBytes := int64(total) * weight * tupleBytes(env, n.Left)
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		spill(p, env, n, st, overflow, 0)
	}

	parts := stageDop(env, n)
	chunk := (total + parts - 1) / parts
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		rows := min(chunk, total-part*chunk)
		if rows <= 0 {
			return
		}
		w := float64(int64(rows) * weight)
		ctx.CPU(w * ctx.Cost.SortIPR * math.Log2(w+2))
		region := env.M.ReserveRegion(needBytes/int64(parts) + 1)
		ctx.TouchSeq(region, needBytes/int64(parts), true, 8)
	})
	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int { return compareKeysAt(cs.cols, n.Keys, a, b) })
	ctx := env.newCtx(p, env.home())
	if parts > 1 {
		ctx.CPU(float64(int64(total)*weight) * ctx.Cost.SortIPR)
	}
	ctx.Flush()
	return cs.gather(perm, batchSize(env))
}

// vecTop selects the limit smallest permutation indices with the shared
// bounded heap.
func vecTop(p *sim.Proc, env *Env, n *Node, in []*Batch) []*Batch {
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}
	ctx := env.newCtx(p, env.home())
	cs := concatBatches(in)
	limit := n.Limit
	if limit <= 0 || limit > cs.n {
		limit = cs.n
	}
	idx := topKIdx(cs.n, limit, func(i, j int32) bool { return lessKeysAt(cs.cols, n.Keys, i, j) })
	w := float64(int64(cs.n) * weight)
	ctx.CPU(w * ctx.Cost.SortIPR * math.Log2(float64(limit)+2))
	ctx.Flush()
	return cs.gather(idx, batchSize(env))
}
