package tpch

import (
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sim"
)

// Query returns the n-th TPC-H query template (1..22) with parameters
// drawn from g, as a logical plan ready for the optimizer. Each template
// preserves the published query's operator structure — join graph,
// aggregation, ordering — with predicates compiled against the generated
// data. DESIGN.md documents per-query simplifications.
func (d *Dataset) Query(n int, g *sim.RNG) *opt.LNode {
	q := d.query(n, g)
	q.Label = fmt.Sprintf("tpch.Q%d", n)
	return q
}

func (d *Dataset) query(n int, g *sim.RNG) *opt.LNode {
	switch n {
	case 1:
		return d.q1(g)
	case 2:
		return d.q2(g)
	case 3:
		return d.q3(g)
	case 4:
		return d.q4(g)
	case 5:
		return d.q5(g)
	case 6:
		return d.q6(g)
	case 7:
		return d.q7(g)
	case 8:
		return d.q8(g)
	case 9:
		return d.q9(g)
	case 10:
		return d.q10(g)
	case 11:
		return d.q11(g)
	case 12:
		return d.q12(g)
	case 13:
		return d.q13(g)
	case 14:
		return d.q14(g)
	case 15:
		return d.q15(g)
	case 16:
		return d.q16(g)
	case 17:
		return d.q17(g)
	case 18:
		return d.q18(g)
	case 19:
		return d.q19(g)
	case 20:
		return d.q20(g)
	case 21:
		return d.q21(g)
	case 22:
		return d.q22(g)
	default:
		panic("tpch: query number out of range")
	}
}

// NumQueries is the size of the query set.
const NumQueries = 22

// nomO etc. give nominal cardinalities for hints.
func (d *Dataset) nomO() float64  { return float64(d.O.NominalRows()) }
func (d *Dataset) nomPS() float64 { return float64(d.PS.NominalRows()) }
func (d *Dataset) nomP() float64  { return float64(d.P.NominalRows()) }
func (d *Dataset) nomS() float64  { return float64(d.S.NominalRows()) }
func (d *Dataset) nomC() float64  { return float64(d.C.NominalRows()) }

// Q1: pricing summary report. Scan ~97% of lineitem, compute derived
// prices, aggregate into a handful of (returnflag, linestatus) groups.
func (d *Dataset) q1(g *sim.RNG) *opt.LNode {
	delta := 60 + g.Int64n(61)
	cut := Date(1998, 12, 1) - delta
	sd := d.L.Schema.Col("l_shipdate")
	// Scan layout: 0=qty, 1=price, 2=disc, 3=tax, 4=rf, 5=ls.
	b := d.scan(d.L,
		[]string{"l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus"},
		func(r exec.Row) bool { return r[sd] <= cut }, 1, []string{"l_shipdate"},
		0.97).
		proj(
			colE("l_returnflag"), colE("l_linestatus"), colE("l_quantity"),
			colE("l_extendedprice"), colE("l_discount"),
			calc("disc_price", func(r exec.Row) int64 { return r[1] * (100 - r[2]) / 100 }),
			calc("charge", func(r exec.Row) int64 { return r[1] * (100 - r[2]) * (100 + r[3]) / 10000 }),
		)
	return b.groupBy(
		[]string{"l_returnflag", "l_linestatus"},
		[]aggSpec{
			sum("sum_qty", "l_quantity"), sum("sum_base_price", "l_extendedprice"),
			sum("sum_disc_price", "disc_price"), sum("sum_charge", "charge"),
			avg("avg_qty", "l_quantity"), avg("avg_price", "l_extendedprice"),
			avg("avg_disc", "l_discount"), cnt("count_order"),
		}, 6, 1).
		orderBy("l_returnflag", "l_linestatus").node
}

// Q2: minimum-cost supplier. Part filtered by size and type suffix joins
// partsupp, supplier, nation (region-restricted); the correlated min
// subquery becomes a group-by + rejoin.
func (d *Dataset) q2(g *sim.RNG) *opt.LNode {
	size := g.Int64n(50) + 1
	syl3 := typeSyl3[g.Intn(len(typeSyl3))]
	region := g.Int64n(5)
	pSize := d.P.Schema.Col("p_size")
	pType := d.P.Schema.Col("p_type")
	typeSet := d.P.Pool(pType).Match(func(s string) bool { return strings.HasSuffix(s, syl3) })
	nReg := d.N.Schema.Col("n_regionkey")

	part := d.scan(d.P, []string{"p_partkey", "p_mfgr"},
		func(r exec.Row) bool { return r[pSize] == size && typeSet[r[pType]] },
		2, []string{"p_size", "p_type"}, 1.0/50/5)
	ps := d.scan(d.PS, []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}, nil, 0, nil, 1)
	nat := d.scan(d.N, []string{"n_nationkey", "n_name"},
		func(r exec.Row) bool { return r[nReg] == region }, 1, []string{"n_regionkey"}, 0.2)
	sup := d.scan(d.S, []string{"s_suppkey", "s_name", "s_acctbal", "s_nationkey"}, nil, 0, nil, 1)

	a := ps.joinFK(part, "ps_partkey", "p_partkey", d.PKPart).
		joinFK(sup, "ps_suppkey", "s_suppkey", d.PKSupplier).
		join(nat, []string{"s_nationkey"}, []string{"n_nationkey"})
	mins := a.groupBy([]string{"ps_partkey"}, []aggSpec{mn("min_cost", "ps_supplycost")},
		d.nomP()/250, d.K)
	final := a.join(mins, []string{"ps_partkey", "ps_supplycost"}, []string{"ps_partkey", "min_cost"})
	return final.top(100, []string{"s_acctbal", "n_name", "s_name"}, []bool{true, false, false}).node
}

// Q3: shipping priority. Orders before a date join segment customers,
// then unshipped lineitems; top 10 revenue.
func (d *Dataset) q3(g *sim.RNG) *opt.LNode {
	seg := d.C.Pool(d.C.Schema.Col("c_mktsegment")).MatchPrefix(segments[g.Intn(5)])
	day := Date(1995, 3, 1) + g.Int64n(31)
	cSeg := d.C.Schema.Col("c_mktsegment")
	oDate := d.O.Schema.Col("o_orderdate")
	lShip := d.L.Schema.Col("l_shipdate")

	cust := d.scan(d.C, []string{"c_custkey"},
		func(r exec.Row) bool { return seg[r[cSeg]] }, 1, []string{"c_mktsegment"}, 0.2)
	ord := d.scan(d.O, []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		func(r exec.Row) bool { return r[oDate] < day }, 1, []string{"o_orderdate"},
		float64(day)/float64(DateHi))
	li := d.scan(d.L, []string{"l_orderkey", "l_extendedprice", "l_discount"},
		func(r exec.Row) bool { return r[lShip] > day }, 1, []string{"l_shipdate"},
		1-float64(day)/float64(DateHi))

	j := li.join(ord.semi(cust, []string{"o_custkey"}, []string{"c_custkey"}),
		[]string{"l_orderkey"}, []string{"o_orderkey"}).
		proj(colE("l_orderkey"), colE("o_orderdate"), colE("o_shippriority"),
			calc("rev", func(r exec.Row) int64 {
				return r[1] * (100 - r[2]) / 100
			}))
	agg := j.groupBy([]string{"l_orderkey", "o_orderdate", "o_shippriority"},
		[]aggSpec{sum("revenue", "rev")}, d.nomO()/10, d.K)
	return agg.top(10, []string{"revenue", "o_orderdate"}, []bool{true, false}).node
}

// Q4: order priority checking. Quarter of orders semi-joined with late
// lineitems, counted by priority.
func (d *Dataset) q4(g *sim.RNG) *opt.LNode {
	lo := Date(1993, 1, 1) + g.Int64n(58)*30
	hi := lo + 90
	oDate := d.O.Schema.Col("o_orderdate")
	lCommit := d.L.Schema.Col("l_commitdate")
	lReceipt := d.L.Schema.Col("l_receiptdate")

	ord := d.scan(d.O, []string{"o_orderkey", "o_orderpriority"},
		func(r exec.Row) bool { return r[oDate] >= lo && r[oDate] < hi },
		1, []string{"o_orderdate"}, 90.0/float64(DateHi))
	late := d.scan(d.L, []string{"l_orderkey"},
		func(r exec.Row) bool { return r[lCommit] < r[lReceipt] },
		1, []string{"l_commitdate", "l_receiptdate"}, 0.5)
	return ord.semi(late, []string{"o_orderkey"}, []string{"l_orderkey"}).
		groupBy([]string{"o_orderpriority"}, []aggSpec{cnt("order_count")}, 5, 1).
		orderBy("o_orderpriority").node
}

// Q5: local supplier volume. Six-way join restricted to one region and
// one year, requiring customer and supplier in the same nation.
func (d *Dataset) q5(g *sim.RNG) *opt.LNode {
	region := g.Int64n(5)
	yr := 1993 + g.Int64n(5)
	lo, hi := Date(yr, 1, 1), Date(yr+1, 1, 1)
	oDate := d.O.Schema.Col("o_orderdate")
	nReg := d.N.Schema.Col("n_regionkey")

	li := d.scan(d.L, []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}, nil, 0, nil, 1)
	ord := d.scan(d.O, []string{"o_orderkey", "o_custkey"},
		func(r exec.Row) bool { return r[oDate] >= lo && r[oDate] < hi },
		1, []string{"o_orderdate"}, 365.0/float64(DateHi))
	cust := d.scan(d.C, []string{"c_custkey", "c_nationkey"}, nil, 0, nil, 1)
	sup := d.scan(d.S, []string{"s_suppkey", "s_nationkey"}, nil, 0, nil, 1)
	nat := d.scan(d.N, []string{"n_nationkey", "n_name"},
		func(r exec.Row) bool { return r[nReg] == region }, 1, []string{"n_regionkey"}, 0.2)

	bb := li.joinFK(ord, "l_orderkey", "o_orderkey", d.PKOrders).
		joinFK(cust, "o_custkey", "c_custkey", d.PKCustomer).
		joinFK(sup, "l_suppkey", "s_suppkey", d.PKSupplier)
	cNat, sNat := bb.pos("c_nationkey"), bb.pos("s_nationkey")
	bb = bb.filter("same_nation", 1.0/25, 1, func(r exec.Row) bool { return r[cNat] == r[sNat] })
	bb = bb.join(nat, []string{"s_nationkey"}, []string{"n_nationkey"})
	ep, disc := bb.pos("l_extendedprice"), bb.pos("l_discount")
	bb = bb.proj(colE("n_name"), calc("rev", func(r exec.Row) int64 {
		return r[ep] * (100 - r[disc]) / 100
	}))
	return bb.groupBy([]string{"n_name"}, []aggSpec{sum("revenue", "rev")}, 5, 1).
		orderByDesc([]string{"revenue"}, []bool{true}).node
}

// Q6: forecasting revenue change. Pure scan-and-aggregate with tight
// range predicates.
func (d *Dataset) q6(g *sim.RNG) *opt.LNode {
	yr := 1993 + g.Int64n(5)
	lo, hi := Date(yr, 1, 1), Date(yr+1, 1, 1)
	disc := g.Int64n(8) + 2 // 0.02..0.09 in hundredths
	qty := 24 + g.Int64n(2)
	sd := d.L.Schema.Col("l_shipdate")
	ld := d.L.Schema.Col("l_discount")
	lq := d.L.Schema.Col("l_quantity")
	b := d.scan(d.L, []string{"l_extendedprice", "l_discount"},
		func(r exec.Row) bool {
			return r[sd] >= lo && r[sd] < hi &&
				r[ld] >= disc-1 && r[ld] <= disc+1 && r[lq] < qty*100
		}, 3, []string{"l_shipdate", "l_discount", "l_quantity"}, 0)
	// Selectivity comes from the lineitem histograms, as a real optimizer
	// would estimate this three-way conjunctive range.
	b.node.Stats = d.LStats
	b.node.PredRanges = []opt.ColRange{
		{Col: sd, Lo: lo, Hi: hi - 1},
		{Col: ld, Lo: disc - 1, Hi: disc + 1},
		{Col: lq, Lo: 0, Hi: qty*100 - 1},
	}
	b = b.proj(calc("rev", func(r exec.Row) int64 { return r[0] * r[1] / 100 }))
	return b.groupBy(nil, []aggSpec{sum("revenue", "rev")}, 1, 1).node
}

// Q7: volume shipping between two nations, grouped by year.
func (d *Dataset) q7(g *sim.RNG) *opt.LNode {
	n1 := g.Int64n(25)
	n2 := (n1 + 1 + g.Int64n(24)) % 25
	lo, hi := Date(1995, 1, 1), Date(1996, 12, 31)
	sd := d.L.Schema.Col("l_shipdate")
	sNat := d.S.Schema.Col("s_nationkey")
	cNat := d.C.Schema.Col("c_nationkey")

	li := d.scan(d.L, []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		func(r exec.Row) bool { return r[sd] >= lo && r[sd] <= hi },
		1, []string{"l_shipdate"}, 730.0/float64(DateHi))
	sup := d.scan(d.S, []string{"s_suppkey", "s_nationkey"},
		func(r exec.Row) bool { return r[sNat] == n1 || r[sNat] == n2 },
		1, []string{"s_nationkey"}, 2.0/25)
	ord := d.scan(d.O, []string{"o_orderkey", "o_custkey"}, nil, 0, nil, 1)
	cust := d.scan(d.C, []string{"c_custkey", "c_nationkey"},
		func(r exec.Row) bool { return r[cNat] == n1 || r[cNat] == n2 },
		1, []string{"c_nationkey"}, 2.0/25)

	b := li.join(sup, []string{"l_suppkey"}, []string{"s_suppkey"}).
		joinFK(ord, "l_orderkey", "o_orderkey", d.PKOrders).
		join(cust, []string{"o_custkey"}, []string{"c_custkey"})
	sn, cn := b.pos("s_nationkey"), b.pos("c_nationkey")
	b = b.filter("cross_pair", 0.5, 1, func(r exec.Row) bool {
		return (r[sn] == n1 && r[cn] == n2) || (r[sn] == n2 && r[cn] == n1)
	})
	ep, disc, sdp := b.pos("l_extendedprice"), b.pos("l_discount"), b.pos("l_shipdate")
	b = b.proj(colE("s_nationkey"), colE("c_nationkey"),
		calc("l_year", func(r exec.Row) int64 { return r[sdp]/365 + 1992 }),
		calc("volume", func(r exec.Row) int64 { return r[ep] * (100 - r[disc]) / 100 }))
	return b.groupBy([]string{"s_nationkey", "c_nationkey", "l_year"},
		[]aggSpec{sum("revenue", "volume")}, 4, 1).
		orderBy("s_nationkey", "c_nationkey", "l_year").node
}

// Q8: national market share within a region for a part type.
func (d *Dataset) q8(g *sim.RNG) *opt.LNode {
	nation := g.Int64n(25)
	region := nationRegion[nation]
	typ := typeSyl1[g.Intn(6)] + " " + typeSyl2[g.Intn(5)] + " " + typeSyl3[g.Intn(5)]
	pType := d.P.Schema.Col("p_type")
	typeCode := code(d.P.Pool(pType), typ)
	oDate := d.O.Schema.Col("o_orderdate")
	nReg := d.N.Schema.Col("n_regionkey")
	lo, hi := Date(1995, 1, 1), Date(1996, 12, 31)

	part := d.scan(d.P, []string{"p_partkey"},
		func(r exec.Row) bool { return r[pType] == typeCode }, 1, []string{"p_type"}, 1.0/150)
	li := d.scan(d.L, []string{"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"}, nil, 0, nil, 1)
	ord := d.scan(d.O, []string{"o_orderkey", "o_custkey", "o_orderdate"},
		func(r exec.Row) bool { return r[oDate] >= lo && r[oDate] <= hi },
		1, []string{"o_orderdate"}, 730.0/float64(DateHi))
	cust := d.scan(d.C, []string{"c_custkey", "c_nationkey"}, nil, 0, nil, 1)
	natR := d.scan(d.N, []string{"n_nationkey"},
		func(r exec.Row) bool { return r[nReg] == region }, 1, []string{"n_regionkey"}, 0.2)
	sup := d.scan(d.S, []string{"s_suppkey", "s_nationkey"}, nil, 0, nil, 1)

	b := li.joinFK(part, "l_partkey", "p_partkey", d.PKPart).
		join(ord, []string{"l_orderkey"}, []string{"o_orderkey"}).
		joinFK(cust, "o_custkey", "c_custkey", d.PKCustomer).
		semi(natR, []string{"c_nationkey"}, []string{"n_nationkey"}).
		joinFK(sup, "l_suppkey", "s_suppkey", d.PKSupplier)
	ep, disc, od, sn := b.pos("l_extendedprice"), b.pos("l_discount"), b.pos("o_orderdate"), b.pos("s_nationkey")
	b = b.proj(
		calc("o_year", func(r exec.Row) int64 { return r[od]/365 + 1992 }),
		calc("volume", func(r exec.Row) int64 { return r[ep] * (100 - r[disc]) / 100 }),
		calc("nation_volume", func(r exec.Row) int64 {
			if r[sn] == nation {
				return r[ep] * (100 - r[disc]) / 100
			}
			return 0
		}))
	return b.groupBy([]string{"o_year"},
		[]aggSpec{sum("mkt_total", "volume"), sum("mkt_nation", "nation_volume")}, 2, 1).
		orderBy("o_year").node
}

// Q9: product type profit, grouped by nation and year.
func (d *Dataset) q9(g *sim.RNG) *opt.LNode {
	color := colors[g.Intn(len(colors))]
	pName := d.P.Schema.Col("p_name")
	nameSet := d.P.Pool(pName).MatchContains(color)

	part := d.scan(d.P, []string{"p_partkey"},
		func(r exec.Row) bool { return nameSet[r[pName]] }, 1, []string{"p_name"}, 2.0/float64(len(colors)))
	li := d.scan(d.L, []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"}, nil, 0, nil, 1)
	sup := d.scan(d.S, []string{"s_suppkey", "s_nationkey"}, nil, 0, nil, 1)
	ps := d.scan(d.PS, []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}, nil, 0, nil, 1)
	ord := d.scan(d.O, []string{"o_orderkey", "o_orderdate"}, nil, 0, nil, 1)
	nat := d.scan(d.N, []string{"n_nationkey", "n_name"}, nil, 0, nil, 1)

	b := li.joinFK(part, "l_partkey", "p_partkey", d.PKPart).
		join(ps, []string{"l_partkey", "l_suppkey"}, []string{"ps_partkey", "ps_suppkey"}).
		joinFK(sup, "l_suppkey", "s_suppkey", d.PKSupplier).
		joinFK(ord, "l_orderkey", "o_orderkey", d.PKOrders).
		joinFK(nat, "s_nationkey", "n_nationkey", nil)
	ep, disc, qty, cost, od := b.pos("l_extendedprice"), b.pos("l_discount"), b.pos("l_quantity"), b.pos("ps_supplycost"), b.pos("o_orderdate")
	b = b.proj(colE("n_name"),
		calc("o_year", func(r exec.Row) int64 { return r[od]/365 + 1992 }),
		calc("amount", func(r exec.Row) int64 {
			return r[ep]*(100-r[disc])/100 - r[cost]*r[qty]/10000
		}))
	return b.groupBy([]string{"n_name", "o_year"}, []aggSpec{sum("sum_profit", "amount")}, 175, 1).
		orderByDesc([]string{"n_name", "o_year"}, []bool{false, true}).node
}

// Q10: returned item reporting. Top 20 customers by lost revenue.
func (d *Dataset) q10(g *sim.RNG) *opt.LNode {
	lo := Date(1993, 2, 1) + g.Int64n(24)*30
	hi := lo + 90
	oDate := d.O.Schema.Col("o_orderdate")
	lrf := d.L.Schema.Col("l_returnflag")

	li := d.scan(d.L, []string{"l_orderkey", "l_extendedprice", "l_discount"},
		func(r exec.Row) bool { return r[lrf] == 1 }, 1, []string{"l_returnflag"}, 0.25)
	ord := d.scan(d.O, []string{"o_orderkey", "o_custkey"},
		func(r exec.Row) bool { return r[oDate] >= lo && r[oDate] < hi },
		1, []string{"o_orderdate"}, 90.0/float64(DateHi))
	cust := d.scan(d.C, []string{"c_custkey", "c_name", "c_acctbal", "c_nationkey"}, nil, 0, nil, 1)
	nat := d.scan(d.N, []string{"n_nationkey", "n_name"}, nil, 0, nil, 1)

	b := li.join(ord, []string{"l_orderkey"}, []string{"o_orderkey"}).
		joinFK(cust, "o_custkey", "c_custkey", d.PKCustomer).
		joinFK(nat, "c_nationkey", "n_nationkey", nil)
	ep, disc := b.pos("l_extendedprice"), b.pos("l_discount")
	b = b.proj(colE("c_custkey"), colE("c_name"), colE("c_acctbal"), colE("n_name"),
		calc("rev", func(r exec.Row) int64 { return r[ep] * (100 - r[disc]) / 100 }))
	return b.groupBy([]string{"c_custkey", "c_name", "c_acctbal", "n_name"},
		[]aggSpec{sum("revenue", "rev")}, d.nomC()/20, d.K).
		top(20, []string{"revenue"}, []bool{true}).node
}

// Q11: important stock identification: group partsupp value by part for
// one nation, keep groups above a fraction of the total. The total is
// computed from statistics at plan time (the real query's second
// aggregation pass; see DESIGN.md).
func (d *Dataset) q11(g *sim.RNG) *opt.LNode {
	nation := g.Int64n(25)
	sNat := d.S.Schema.Col("s_nationkey")
	// Plan-time total for the HAVING threshold.
	var total int64
	supNat := d.S.Col(sNat)
	psS, psC, psQ := d.PS.Col(1), d.PS.Col(3), d.PS.Col(2)
	for i := range psS {
		if supNat[psS[i]%int64(len(supNat))] == nation {
			total += psC[i] * psQ[i]
		}
	}
	threshold := int64(float64(total*d.K) * 0.0001 / float64(d.Cfg.SF))

	sup := d.scan(d.S, []string{"s_suppkey"},
		func(r exec.Row) bool { return r[sNat] == nation }, 1, []string{"s_nationkey"}, 1.0/25)
	ps := d.scan(d.PS, []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}, nil, 0, nil, 1)
	b := ps.semi(sup, []string{"ps_suppkey"}, []string{"s_suppkey"})
	qty, cost := b.pos("ps_availqty"), b.pos("ps_supplycost")
	b = b.proj(colE("ps_partkey"),
		calc("value", func(r exec.Row) int64 { return r[cost] * r[qty] / 100 }))
	b = b.groupBy([]string{"ps_partkey"}, []aggSpec{sum("value", "value")}, d.nomP()/25, d.K)
	v := b.pos("value")
	b = b.filter("having", 0.05, 1, func(r exec.Row) bool { return r[v] > threshold })
	return b.orderByDesc([]string{"value"}, []bool{true}).node
}
