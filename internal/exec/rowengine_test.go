package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/access"
	"repro/internal/sim"
)

// This file is the row-at-a-time engine the batch engine replaced, kept
// as the differential oracle (as cache's refLLC and fault's old walkers
// are): operators consume and produce materialized []Row and charge per
// partition. No product code calls it. The bodies are the ones that
// shipped, moved here unchanged, so an executor change is checked
// against code that was not written alongside it.

// runRowEngine is Run on the row engine: the same prologue and epilogue
// around runNode instead of runNodeVec.
func runRowEngine(p *sim.Proc, env *Env, root *Node) ([]Row, QueryStats) {
	st := QueryStats{GrantBytes: grantBytes(env.Grant)}
	rows := runNode(p, env, root, &st)
	st.OutRows = len(rows)
	st.UsedBytes = env.Grant.Used()
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
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
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
	env.parallel(p, parts, func(ctx *access.Ctx, _, seg int) {
		if segs == 0 {
			return
		}
		// Decode the needed columns of this segment.
		decoded := map[int][]int64{}
		for _, cp := range colPoss {
			csi.ChargeSegmentScan(ctx, cp, seg, n.NPred)
			s := ix.Segment(cp, seg)
			decoded[cp] = s.DecodeRange(0, s.N, nil)
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
	ctx.CPU(float64(int64(len(in))*n.Weight) * ctx.Cost.PredIPR * float64(max(n.NPred, 1)))
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

func keysEqual(a Row, ak []int, b Row, bk []int) bool {
	for i := range ak {
		if a[ak[i]] != b[bk[i]] {
			return false
		}
	}
	return true
}

// joinTable is one partition's hash table: hash -> indices of build rows.
type joinTable struct {
	buckets map[uint64][]int32
	rows    []Row
}

func newJoinTable() *joinTable {
	return &joinTable{buckets: make(map[uint64][]int32)}
}

func (jt *joinTable) insert(r Row, keys []int) {
	h := hashRow(r, keys)
	jt.buckets[h] = append(jt.buckets[h], int32(len(jt.rows)))
	jt.rows = append(jt.rows, r)
}

// runHashJoin materializes both children, builds partitioned hash tables
// over the build (left) side, and probes with the right side. Exceeding
// the memory grant spills partitions to tempdb (charged as write+read of
// the spilled nominal bytes).
func runHashJoin(p *sim.Proc, env *Env, n *Node, st *QueryStats, build, probe []Row) []Row {
	rowBytes := tupleBytes(env, n.Left)
	needBytes := int64(len(build)) * n.Left.Weight * rowBytes
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		spill(p, env, n, st, overflow, probeSpillShare(overflow, needBytes, int64(len(probe))*n.Right.Weight*tupleBytes(env, n.Right)))
	}

	region := env.M.ReserveRegion(needBytes + 1)
	parts := stageDop(env, n)
	tables := make([]*joinTable, parts)
	buildParts := partitionRows(build, n.BuildKeys, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		jt := newJoinTable()
		rows := buildParts[part]
		for _, r := range rows {
			jt.insert(r, n.BuildKeys)
		}
		w := int64(len(rows)) * n.Left.Weight
		ctx.CPU(float64(w) * ctx.Cost.HashBuildIPR)
		share := needBytes / int64(parts)
		if share < 1 {
			share = 1
		}
		ctx.TouchRandom(region+uint64(part)*uint64(share), share, w, true, 4)
		tables[part] = jt
	})

	probeParts := partitionRows(probe, n.ProbeKeys, parts)
	results := make([][]Row, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		jt := tables[part]
		rows := probeParts[part]
		w := int64(len(rows)) * n.Right.Weight
		ctx.CPU(float64(w) * ctx.Cost.HashProbeIPR)
		share := needBytes / int64(parts)
		if share < 1 {
			share = 1
		}
		ctx.TouchRandom(region+uint64(part)*uint64(share), share, w, false, 4)
		var out []Row
		for _, pr := range rows {
			h := hashRow(pr, n.ProbeKeys)
			matched := false
			for _, bi := range jt.buckets[h] {
				br := jt.rows[bi]
				if !keysEqual(br, n.BuildKeys, pr, n.ProbeKeys) {
					continue
				}
				matched = true
				if n.JoinType == InnerJoin {
					out = append(out, concatRows(pr, br))
				} else {
					break
				}
			}
			switch n.JoinType {
			case SemiJoin:
				if matched {
					out = append(out, pr)
				}
			case AntiJoin:
				if !matched {
					out = append(out, pr)
				}
			}
		}
		results[part] = out
	})
	return flatten(results)
}

// partitionRows splits rows by key hash for partitioned parallel stages;
// with one partition it passes rows through.
func partitionRows(rows []Row, keys []int, parts int) [][]Row {
	if parts <= 1 {
		return [][]Row{rows}
	}
	out := make([][]Row, parts)
	for _, r := range rows {
		p := int(hashRow(r, keys) % uint64(parts))
		out[p] = append(out[p], r)
	}
	return out
}

// encodeKey builds the oracle's group key from group columns.
func encodeKey(r Row, groups []int) string {
	b := make([]byte, 0, len(groups)*8)
	for _, c := range groups {
		v := uint64(r[c])
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// groupEnt is one group of the oracle's hash aggregate.
type groupEnt struct {
	key   Row
	state []int64
}

// rowAggTable is the oracle's group table: one entry per group, in
// insertion order, found by its encoded key. It shares nothing with the
// executor's slab table (aggTable).
type rowAggTable struct {
	groups []int
	aggs   []AggSpec
	index  map[string]int
	ents   []*groupEnt
}

func newRowAggTable(groups []int, aggs []AggSpec) *rowAggTable {
	return &rowAggTable{groups: groups, aggs: aggs, index: map[string]int{}}
}

// entRow returns row r's group entry, creating it on first sight.
func (t *rowAggTable) entRow(r Row) *groupEnt {
	k := encodeKey(r, t.groups)
	if ix, ok := t.index[k]; ok {
		return t.ents[ix]
	}
	g := &groupEnt{key: project(r, t.groups), state: newAggState(t.aggs)}
	t.index[k] = len(t.ents)
	t.ents = append(t.ents, g)
	return g
}

func finalize(key Row, st []int64, aggs []AggSpec) Row {
	out := make(Row, 0, len(key)+len(aggs))
	out = append(out, key...)
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggAvg:
			if st[i+1] > 0 {
				out = append(out, st[i]/st[i+1])
			} else {
				out = append(out, 0)
			}
		default:
			v := st[i]
			if a.Kind == AggMin && v == math.MaxInt64 {
				v = 0
			}
			if a.Kind == AggMax && v == math.MinInt64 {
				v = 0
			}
			out = append(out, v)
		}
		i += aggWidth(a.Kind)
	}
	return out
}

// finalizeGroups emits finalized groups in group-key order (the keys are
// distinct, so the order is total), and the scalar aggregate over an
// empty input as one zero row.
func finalizeGroups(ents []*groupEnt, groups []int, aggs []AggSpec) []Row {
	if len(groups) == 0 && len(ents) == 0 {
		return []Row{finalize(nil, newAggState(aggs), aggs)}
	}
	out := make([]Row, len(ents))
	for i, g := range ents {
		out[i] = finalize(g.key, g.state, aggs)
	}
	ng := len(groups)
	slices.SortFunc(out, func(a, b Row) int { return slices.Compare(a[:ng], b[:ng]) })
	return out
}

func accumulate(st []int64, aggs []AggSpec, r Row, weight int64) {
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggSum:
			st[i] += r[a.Col] * weight
		case AggCount:
			st[i] += weight
		case AggMin:
			if r[a.Col] < st[i] {
				st[i] = r[a.Col]
			}
		case AggMax:
			if r[a.Col] > st[i] {
				st[i] = r[a.Col]
			}
		case AggAvg:
			st[i] += r[a.Col] * weight
			st[i+1] += weight
		}
		i += aggWidth(a.Kind)
	}
}

// runHashAgg aggregates the child's output. Parallel stages compute
// partition-local partial aggregates; the coordinator concatenates them
// and emits groups in deterministic (sorted) group order. Aggregate
// inputs are weighted by the child's nominal weight so SUM/COUNT reflect
// nominal cardinalities.
func runHashAgg(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []Row) []Row {
	parts := stageDop(env, n)
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}

	inParts := partitionRows(in, n.Groups, parts)
	partials := make([]*rowAggTable, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		at := newRowAggTable(n.Groups, n.Aggs)
		rows := inParts[part]
		for _, r := range rows {
			accumulate(at.entRow(r).state, n.Aggs, r, weight)
		}
		w := int64(len(rows)) * weight
		ctx.CPU(float64(w) * ctx.Cost.AggIPR)
		// The group table's nominal footprint: groups are dimension-level
		// entities, so their nominal count scales with the group count,
		// not the input weight.
		groupBytes := int64(len(at.ents)) * tupleBytes(env, n.Left)
		if groupBytes > 0 {
			region := env.M.ReserveRegion(groupBytes)
			ctx.TouchRandom(region, groupBytes, w, true, 4)
		}
		partials[part] = at
	})

	// Grant accounting on the groups of every partition that ran; the
	// partitions are cut by group hash, so their groups are disjoint.
	var totalGroups int64
	var ents []*groupEnt
	for _, at := range partials {
		if at != nil {
			totalGroups += int64(len(at.ents))
			ents = append(ents, at.ents...)
		}
	}
	needBytes := totalGroups * tupleBytes(env, n.Left)
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		spill(p, env, n, st, overflow, 0)
	}

	ctx := env.newCtx(p, env.home())
	out := finalizeGroups(ents, n.Groups, n.Aggs)
	ctx.CPU(float64(totalGroups) * ctx.Cost.AggIPR)
	ctx.Flush()
	return out
}

func lessByKeys(a, b Row, keys []SortKey) bool {
	for _, k := range keys {
		av, bv := a[k.Col], b[k.Col]
		if av == bv {
			continue
		}
		if k.Desc {
			return av > bv
		}
		return av < bv
	}
	return false
}

// runSort sorts the child's output. Parallel stages charge the sort of
// their chunks and the coordinator their merge; one stable sort of the
// input gives the order the merged chunks have. Input larger than the
// grant spills sort runs to tempdb.
func runSort(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []Row) []Row {
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}
	needBytes := int64(len(in)) * weight * tupleBytes(env, n.Left)
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		// External sort: spilled runs are written and re-read once.
		spill(p, env, n, st, overflow, 0)
	}

	parts := stageDop(env, n)
	chunks := chunkRows(in, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, _, part int) {
		rows := chunks[part]
		if len(rows) == 0 {
			return
		}
		w := float64(int64(len(rows)) * weight)
		ctx.CPU(w * ctx.Cost.SortIPR * math.Log2(w+2))
		region := env.M.ReserveRegion(needBytes/int64(parts) + 1)
		ctx.TouchSeq(region, needBytes/int64(parts), true, 8)
	})

	ctx := env.newCtx(p, env.home())
	sort.SliceStable(in, func(i, j int) bool { return lessByKeys(in[i], in[j], n.Keys) })
	if parts > 1 {
		ctx.CPU(float64(int64(len(in))*weight) * ctx.Cost.SortIPR)
	}
	ctx.Flush()
	return in
}

// runTop returns the first Limit rows of the input's stable order by the
// sort keys, selected against a bounded heap (O(n log limit), cheaper
// than a full sort) so the executed work matches the charged cost
// w·SortIPR·log2(limit+2).
func runTop(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []Row) []Row {
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}
	ctx := env.newCtx(p, env.home())
	limit := n.Limit
	if limit <= 0 || limit > len(in) {
		limit = len(in)
	}
	idx := topKIdx(len(in), limit, func(i, j int32) bool { return lessByKeys(in[i], in[j], n.Keys) })
	out := make([]Row, len(idx))
	for i, ix := range idx {
		out[i] = in[ix]
	}
	w := float64(int64(len(in)) * weight)
	ctx.CPU(w * ctx.Cost.SortIPR * math.Log2(float64(limit)+2))
	ctx.Flush()
	return out
}
