package tpch

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/storage"
)

// code returns the dictionary code of s, or -1 when s was never interned
// (so a failed lookup can never alias a real value).
func code(p *storage.StrPool, s string) int64 {
	if c, ok := p.Lookup(s); ok {
		return c
	}
	return -1
}

// qb is a query-building helper that tracks the output column layout by
// name, so multi-join templates stay readable and ordinal bugs surface as
// panics at plan-construction time.
type qb struct {
	d    *Dataset
	node *opt.LNode
	lay  []string
}

func (b *qb) pos(name string) int {
	for i, n := range b.lay {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("tpch: column %q not in layout %v", name, b.lay))
}

func (b *qb) positions(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = b.pos(n)
	}
	return out
}

// scan starts a plan from a table scan with an optional predicate.
// pred receives a full-width table row; predCols names the columns the
// predicate reads (so the columnstore decodes them); sel is the
// selectivity hint.
func (d *Dataset) scan(t *storage.Table, cols []string, pred exec.Pred, npred int, predCols []string, sel float64) *qb {
	proj := make([]int, len(cols))
	for i, c := range cols {
		proj[i] = t.Schema.Col(c)
	}
	var pcs []int
	for _, c := range predCols {
		pcs = append(pcs, t.Schema.Col(c))
	}
	return &qb{
		d: d,
		node: &opt.LNode{
			Kind: opt.LScan,
			Heap: access.Heap{T: t},
			CSI:  d.DB.CSIOf(t),
			Proj: proj, Pred: pred, NPred: npred, PredCols: pcs,
			Sel: sel, Name: t.Name,
		},
		lay: append([]string(nil), cols...),
	}
}

// joinFK performs an inner N:1 join from the current (fact) side to dim:
// output layout is fact columns ++ dim columns. ix optionally enables an
// index nested-loops alternative (dim must then be an unfiltered scan
// matching innerCols).
func (b *qb) joinFK(dim *qb, leftKey, rightKey string, ix *access.BTIndex) *qb {
	n := &opt.LNode{
		Kind: opt.LJoin,
		Left: b.node, Right: dim.node,
		LeftKeys:  []int{b.pos(leftKey)},
		RightKeys: []int{dim.pos(rightKey)},
		JoinType:  exec.InnerJoin,
		FK:        true,
		Name:      "join_" + rightKey,
	}
	if ix != nil {
		n.InnerIndex = ix
		n.InnerProj = dim.node.Proj
	}
	return &qb{d: b.d, node: n, lay: append(append([]string(nil), b.lay...), dim.lay...)}
}

// joinIdx performs a 1:N inner join from the current side into table
// rows reached through ix (fanOut matches per outer row), giving the
// optimizer an index nested-loops alternative.
func (b *qb) joinIdx(r *qb, leftKeys, rightKeys []string, ix *access.BTIndex, fanOut float64) *qb {
	n := &opt.LNode{
		Kind: opt.LJoin,
		Left: b.node, Right: r.node,
		LeftKeys:   b.positions(leftKeys...),
		RightKeys:  r.positions(rightKeys...),
		JoinType:   exec.InnerJoin,
		FanOut:     fanOut,
		InnerIndex: ix, InnerProj: r.node.Proj,
		Name: "joinidx",
	}
	return &qb{d: b.d, node: n, lay: append(append([]string(nil), b.lay...), r.lay...)}
}

// join performs a general inner equi-join (possibly M:N).
func (b *qb) join(r *qb, leftKeys, rightKeys []string) *qb {
	n := &opt.LNode{
		Kind: opt.LJoin,
		Left: b.node, Right: r.node,
		LeftKeys:  b.positions(leftKeys...),
		RightKeys: r.positions(rightKeys...),
		JoinType:  exec.InnerJoin,
		Name:      "join",
	}
	return &qb{d: b.d, node: n, lay: append(append([]string(nil), b.lay...), r.lay...)}
}

// semi keeps rows of b whose keys appear in r.
func (b *qb) semi(r *qb, leftKeys, rightKeys []string) *qb {
	n := &opt.LNode{
		Kind: opt.LJoin,
		Left: b.node, Right: r.node,
		LeftKeys:  b.positions(leftKeys...),
		RightKeys: r.positions(rightKeys...),
		JoinType:  exec.SemiJoin,
		Name:      "semi",
	}
	return &qb{d: b.d, node: n, lay: append([]string(nil), b.lay...)}
}

// anti keeps rows of b whose keys do NOT appear in r.
func (b *qb) anti(r *qb, leftKeys, rightKeys []string) *qb {
	n := &opt.LNode{
		Kind: opt.LJoin,
		Left: b.node, Right: r.node,
		LeftKeys:  b.positions(leftKeys...),
		RightKeys: r.positions(rightKeys...),
		JoinType:  exec.AntiJoin,
		Name:      "anti",
	}
	return &qb{d: b.d, node: n, lay: append([]string(nil), b.lay...)}
}

// filter applies a predicate over the current layout.
func (b *qb) filter(name string, sel float64, npred int, pred exec.Pred) *qb {
	n := &opt.LNode{
		Kind: opt.LFilter, Left: b.node,
		Pred: pred, NPred: npred, Sel: sel, Name: name,
	}
	return &qb{d: b.d, node: n, lay: b.lay}
}

// expr is one computed output column.
type expr struct {
	name string
	fn   func(exec.Row) int64
}

// colExpr passes a column through.
func colE(name string) expr {
	return expr{name: name, fn: nil}
}

// calc computes a new column.
func calc(name string, fn func(exec.Row) int64) expr {
	return expr{name: name, fn: fn}
}

// proj projects/computes columns. Pass-through columns resolve by name.
func (b *qb) proj(exprs ...expr) *qb {
	fns := make([]func(exec.Row) int64, len(exprs))
	lay := make([]string, len(exprs))
	for i, e := range exprs {
		lay[i] = e.name
		if e.fn != nil {
			fns[i] = e.fn
		} else {
			c := b.pos(e.name)
			fns[i] = func(r exec.Row) int64 { return r[c] }
		}
	}
	n := &opt.LNode{Kind: opt.LProject, Left: b.node, Exprs: fns, Name: "project"}
	return &qb{d: b.d, node: n, lay: lay}
}

// aggSpec is one named aggregate.
type aggSpec struct {
	name string
	kind exec.AggKind
	col  string // ignored for count
}

func sum(name, col string) aggSpec { return aggSpec{name, exec.AggSum, col} }
func cnt(name string) aggSpec      { return aggSpec{name, exec.AggCount, ""} }
func mn(name, col string) aggSpec  { return aggSpec{name, exec.AggMin, col} }
func avg(name, col string) aggSpec { return aggSpec{name, exec.AggAvg, col} }

// groupBy aggregates; output layout = groups ++ agg names. ngroups is the
// nominal group-count hint; outWeight the nominal rows per output row.
func (b *qb) groupBy(groups []string, aggs []aggSpec, ngroups float64, outWeight int64) *qb {
	specs := make([]exec.AggSpec, len(aggs))
	lay := append([]string(nil), groups...)
	for i, a := range aggs {
		col := 0
		if a.kind != exec.AggCount {
			col = b.pos(a.col)
		}
		specs[i] = exec.AggSpec{Kind: a.kind, Col: col}
		lay = append(lay, a.name)
	}
	n := &opt.LNode{
		Kind: opt.LAgg, Left: b.node,
		Groups: b.positions(groups...), Aggs: specs,
		NGroups: ngroups, OutWeight: outWeight, Name: "groupby",
	}
	return &qb{d: b.d, node: n, lay: lay}
}

// orderBy sorts by the named columns.
func (b *qb) orderBy(keys ...string) *qb {
	return b.orderByDesc(keys, nil)
}

// orderByDesc sorts with explicit descending flags.
func (b *qb) orderByDesc(keys []string, desc []bool) *qb {
	ks := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		ks[i] = exec.SortKey{Col: b.pos(k)}
		if desc != nil {
			ks[i].Desc = desc[i]
		}
	}
	n := &opt.LNode{Kind: opt.LSort, Left: b.node, Keys: ks, Name: "orderby"}
	return &qb{d: b.d, node: n, lay: b.lay}
}

// top keeps the first k rows by the named keys.
func (b *qb) top(k int, keys []string, desc []bool) *qb {
	ks := make([]exec.SortKey, len(keys))
	for i, key := range keys {
		ks[i] = exec.SortKey{Col: b.pos(key)}
		if desc != nil {
			ks[i].Desc = desc[i]
		}
	}
	n := &opt.LNode{Kind: opt.LTop, Left: b.node, Keys: ks, Limit: k, Name: "top"}
	return &qb{d: b.d, node: n, lay: b.lay}
}
