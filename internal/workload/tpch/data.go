// Package tpch implements a TPC-H-like decision-support workload: the
// 8-table schema, a seeded data generator following the spec's
// distributions, all 22 query templates expressed as logical plans, and
// stream drivers. Per the paper's DW configuration (Table 1), every table
// carries a columnstore index; B-tree primary keys are kept for key
// access so the optimizer can choose index nested loops (the Figure 7
// plan shapes).
//
// Scale mapping: paper scale factor SF implies the spec's nominal row
// counts (lineitem = 6,000,000 x SF, ...). Generated ("actual") rows are
// proportional — lineitem gets SF x ActualLineitemPerSF rows — so every
// proportional table shares one replication factor K and join weights
// stay consistent. Tiny tables (nation, region) generate at K = 1.
package tpch

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config selects a scale factor and down-scaling density.
type Config struct {
	SF                  int
	ActualLineitemPerSF int // generated lineitem rows per SF unit (default 600)
	Seed                int64
}

// Dates are day numbers since 1992-01-01 (day 0); the spec's data spans
// 7 years.
const DateHi = 7 * 365

// Date returns the day number of year y (1992-1998), month m, day d
// (approximate months of 30.4 days; resolution is irrelevant to plan
// behaviour).
func Date(y, m, d int64) int64 {
	return (y-1992)*365 + (m-1)*30 + (d - 1)
}

// Dataset is a generated TPC-H database plus the handles queries need.
type Dataset struct {
	Cfg Config
	DB  *engine.Database

	L, O, PS, P, S, C, N, R *storage.Table

	PKOrders, PKPart, PKSupplier, PKCustomer, PKPartsupp *access.BTIndex

	// LStats carries lineitem histograms (shipdate, discount, quantity)
	// so range-heavy queries estimate selectivity from statistics rather
	// than author hints.
	LStats *opt.TableStats

	// K is the shared replication factor of the proportional tables.
	K int64

	rng *sim.RNG
}

var (
	colors = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "burnished",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
		"cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
		"floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green",
		"grey", "honeydew", "hot", "indian", "ivory", "khaki", "lace", "lavender",
		"lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium",
		"metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy",
		"olive", "orange", "orchid", "pale", "papaya", "peach", "peru", "pink",
		"plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal",
		"saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke",
		"snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise",
		"violet", "wheat", "white", "yellow"}
	typeSyl1  = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2  = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3  = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	modes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	prios     = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	nations   = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
		"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ",
		"JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES"}
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	// nationRegion maps each nation to its region per the spec.
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	commentWords = []string{"carefully", "quickly", "furiously", "special",
		"requests", "packages", "accounts", "deposits", "instructions",
		"theodolites", "pending", "ironic", "regular", "express", "bold", "final"}
)

// Build generates the dataset.
func Build(cfg Config) *Dataset {
	if cfg.ActualLineitemPerSF <= 0 {
		cfg.ActualLineitemPerSF = 600
	}
	if cfg.SF <= 0 {
		cfg.SF = 1
	}
	d := &Dataset{Cfg: cfg, rng: sim.NewRNG(cfg.Seed + int64(cfg.SF)*7919)}
	db := engine.NewDatabase(fmt.Sprintf("tpch-sf%d", cfg.SF))
	d.DB = db

	sf := int64(cfg.SF)
	aL := sf * int64(cfg.ActualLineitemPerSF)
	// Nominal counts per the spec.
	nomL := sf * 6_000_000
	d.K = nomL / aL

	propRows := func(nominal int64) int64 {
		a := nominal / d.K
		if a < 1 {
			a = 1
		}
		return a
	}

	aO := propRows(sf * 1_500_000)
	aPS := propRows(sf * 800_000)
	aP := propRows(sf * 200_000)
	aS := propRows(sf * 10_000)
	aC := propRows(sf * 150_000)

	d.buildRegionNation(db)
	d.buildSupplier(db, aS)
	d.buildPart(db, aP)
	d.buildPartsupp(db, aPS, aP, aS)
	d.buildCustomer(db, aC)
	d.buildOrders(db, aO, aC)
	d.buildLineitem(db, aL, aO, aP, aS)

	// DW configuration: clustered columnstore on every table (Table 1,
	// "fully columnar formats"), B-tree PKs retained for key access.
	for _, t := range []*storage.Table{d.L, d.O, d.PS, d.P, d.S, d.C, d.N, d.R} {
		db.AddCSI(t)
		db.MarkCCI(t)
	}
	d.PKOrders = db.AddBTIndex("pk_orders", d.O, []string{"o_orderkey"}, true, true)
	d.PKPart = db.AddBTIndex("pk_part", d.P, []string{"p_partkey"}, true, true)
	d.PKSupplier = db.AddBTIndex("pk_supplier", d.S, []string{"s_suppkey"}, true, true)
	d.PKCustomer = db.AddBTIndex("pk_customer", d.C, []string{"c_custkey"}, true, true)
	d.PKPartsupp = db.AddBTIndex("pk_partsupp", d.PS, []string{"ps_partkey", "ps_suppkey"}, true, true)

	d.LStats = opt.CollectStats(d.L, []int{
		d.L.Schema.Col("l_shipdate"), d.L.Schema.Col("l_discount"), d.L.Schema.Col("l_quantity"),
	}, 64)
	return d
}

func (d *Dataset) buildRegionNation(db *engine.Database) {
	d.R = db.AddTable(storage.NewSchema("region",
		storage.Column{Name: "r_regionkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "r_name", Type: storage.TStr, Width: 25},
	), 1)
	rp := d.R.Pool(1)
	d.R.Reserve(int64(len(regions)))
	for i, r := range regions {
		d.R.AppendLoad([]int64{int64(i), rp.Code(r)})
	}
	d.N = db.AddTable(storage.NewSchema("nation",
		storage.Column{Name: "n_nationkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "n_name", Type: storage.TStr, Width: 25},
		storage.Column{Name: "n_regionkey", Type: storage.TInt, Width: 4},
	), 1)
	np := d.N.Pool(1)
	d.N.Reserve(int64(len(nations)))
	for i, n := range nations {
		d.N.AppendLoad([]int64{int64(i), np.Code(n), nationRegion[i]})
	}
}

func (d *Dataset) comment(pool *storage.StrPool) int64 {
	w := func() string { return commentWords[d.rng.Intn(len(commentWords))] }
	return pool.Code(w() + " " + w() + " " + w())
}

func (d *Dataset) buildSupplier(db *engine.Database, n int64) {
	d.S = db.AddTable(storage.NewSchema("supplier",
		storage.Column{Name: "s_suppkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "s_name", Type: storage.TStr, Width: 25},
		storage.Column{Name: "s_address", Type: storage.TStr, Width: 40},
		storage.Column{Name: "s_nationkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "s_phone", Type: storage.TStr, Width: 15},
		storage.Column{Name: "s_acctbal", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "s_comment", Type: storage.TStr, Width: 101},
	), d.K)
	name, addr, phone, com := d.S.Pool(1), d.S.Pool(2), d.S.Pool(4), d.S.Pool(6)
	d.S.Reserve(n)
	for i := int64(0); i < n; i++ {
		d.S.AppendLoad([]int64{
			i,
			name.Code(fmt.Sprintf("Supplier#%09d", i)),
			addr.Code(fmt.Sprintf("addr-%d", i%997)),
			d.rng.Int64n(25),
			phone.Code(fmt.Sprintf("%02d-%03d", i%25+10, i%1000)),
			d.rng.Int64n(1100000) - 100000, // -999.99..9999.99 in cents
			d.comment(com),
		})
	}
}

func (d *Dataset) buildPart(db *engine.Database, n int64) {
	d.P = db.AddTable(storage.NewSchema("part",
		storage.Column{Name: "p_partkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "p_name", Type: storage.TStr, Width: 55},
		storage.Column{Name: "p_mfgr", Type: storage.TStr, Width: 25},
		storage.Column{Name: "p_brand", Type: storage.TStr, Width: 10},
		storage.Column{Name: "p_type", Type: storage.TStr, Width: 25},
		storage.Column{Name: "p_size", Type: storage.TInt, Width: 4},
		storage.Column{Name: "p_container", Type: storage.TStr, Width: 10},
		storage.Column{Name: "p_retailprice", Type: storage.TDecimal, Width: 8},
	), d.K)
	name, mfgr, brand, typ, cont := d.P.Pool(1), d.P.Pool(2), d.P.Pool(3), d.P.Pool(4), d.P.Pool(6)
	d.P.Reserve(n)
	for i := int64(0); i < n; i++ {
		c1 := colors[d.rng.Intn(len(colors))]
		c2 := colors[d.rng.Intn(len(colors))]
		m := d.rng.Int64n(5) + 1
		b := m*10 + d.rng.Int64n(5) + 1
		d.P.AppendLoad([]int64{
			i,
			name.Code(c1 + " " + c2),
			mfgr.Code(fmt.Sprintf("Manufacturer#%d", m)),
			brand.Code(fmt.Sprintf("Brand#%d", b)),
			typ.Code(typeSyl1[d.rng.Intn(6)] + " " + typeSyl2[d.rng.Intn(5)] + " " + typeSyl3[d.rng.Intn(5)]),
			d.rng.Int64n(50) + 1,
			cont.Code(fmt.Sprintf("%s %s",
				[]string{"SM", "MED", "LG", "JUMBO", "WRAP"}[d.rng.Intn(5)],
				[]string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}[d.rng.Intn(8)])),
			90000 + i%200000 + d.rng.Int64n(10000),
		})
	}
}

func (d *Dataset) buildPartsupp(db *engine.Database, n, nPart, nSupp int64) {
	d.PS = db.AddTable(storage.NewSchema("partsupp",
		storage.Column{Name: "ps_partkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "ps_suppkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "ps_availqty", Type: storage.TInt, Width: 4},
		storage.Column{Name: "ps_supplycost", Type: storage.TDecimal, Width: 8},
	), d.K)
	d.PS.Reserve(n)
	for i := int64(0); i < n; i++ {
		d.PS.AppendLoad([]int64{
			i % nPart,
			(i + i/nPart) % nSupp,
			d.rng.Int64n(9999) + 1,
			d.rng.Int64n(100000) + 100,
		})
	}
}

func (d *Dataset) buildCustomer(db *engine.Database, n int64) {
	d.C = db.AddTable(storage.NewSchema("customer",
		storage.Column{Name: "c_custkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "c_name", Type: storage.TStr, Width: 25},
		storage.Column{Name: "c_address", Type: storage.TStr, Width: 40},
		storage.Column{Name: "c_nationkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "c_phone", Type: storage.TStr, Width: 15},
		storage.Column{Name: "c_acctbal", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "c_mktsegment", Type: storage.TStr, Width: 10},
		storage.Column{Name: "c_comment", Type: storage.TStr, Width: 117},
	), d.K)
	name, addr, phone, seg, com := d.C.Pool(1), d.C.Pool(2), d.C.Pool(4), d.C.Pool(6), d.C.Pool(7)
	d.C.Reserve(n)
	for i := int64(0); i < n; i++ {
		nat := d.rng.Int64n(25)
		d.C.AppendLoad([]int64{
			i,
			name.Code(fmt.Sprintf("Customer#%09d", i)),
			addr.Code(fmt.Sprintf("caddr-%d", i%997)),
			nat,
			phone.Code(fmt.Sprintf("%02d-%03d", nat+10, i%1000)),
			d.rng.Int64n(1100000) - 100000,
			seg.Code(segments[d.rng.Intn(5)]),
			d.comment(com),
		})
	}
}

func (d *Dataset) buildOrders(db *engine.Database, n, nCust int64) {
	d.O = db.AddTable(storage.NewSchema("orders",
		storage.Column{Name: "o_orderkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "o_custkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "o_orderstatus", Type: storage.TInt, Width: 1},
		storage.Column{Name: "o_totalprice", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "o_orderdate", Type: storage.TDate, Width: 4},
		storage.Column{Name: "o_orderpriority", Type: storage.TStr, Width: 15},
		storage.Column{Name: "o_shippriority", Type: storage.TInt, Width: 4},
		storage.Column{Name: "o_comment", Type: storage.TStr, Width: 79},
	), d.K)
	prio, com := d.O.Pool(5), d.O.Pool(7)
	d.O.Reserve(n)
	for i := int64(0); i < n; i++ {
		// A third of customers place no orders (spec); skew to the rest.
		cust := d.rng.Int64n(nCust*2/3+1) * 3 / 2
		if cust >= nCust {
			cust = nCust - 1
		}
		d.O.AppendLoad([]int64{
			i,
			cust,
			d.rng.Int64n(3), // F/O/P
			100000 + d.rng.Int64n(50000000),
			d.rng.Int64n(DateHi - 151), // leave room for ship/receipt
			prio.Code(prios[d.rng.Intn(5)]),
			0,
			d.comment(com),
		})
	}
}

func (d *Dataset) buildLineitem(db *engine.Database, n, nOrd, nPart, nSupp int64) {
	d.L = db.AddTable(storage.NewSchema("lineitem",
		storage.Column{Name: "l_orderkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "l_partkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "l_suppkey", Type: storage.TInt, Width: 4},
		storage.Column{Name: "l_linenumber", Type: storage.TInt, Width: 4},
		storage.Column{Name: "l_quantity", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "l_extendedprice", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "l_discount", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "l_tax", Type: storage.TDecimal, Width: 8},
		storage.Column{Name: "l_returnflag", Type: storage.TInt, Width: 1},
		storage.Column{Name: "l_linestatus", Type: storage.TInt, Width: 1},
		storage.Column{Name: "l_shipdate", Type: storage.TDate, Width: 4},
		storage.Column{Name: "l_commitdate", Type: storage.TDate, Width: 4},
		storage.Column{Name: "l_receiptdate", Type: storage.TDate, Width: 4},
		storage.Column{Name: "l_shipinstruct", Type: storage.TStr, Width: 25},
		storage.Column{Name: "l_shipmode", Type: storage.TStr, Width: 10},
	), d.K)
	instr, mode := d.L.Pool(13), d.L.Pool(14)
	orderDates := d.O.Col(4)
	d.L.Reserve(n)
	for i := int64(0); i < n; i++ {
		ord := i % nOrd // ~4 lines per order, clustered by order
		odate := orderDates[ord]
		ship := odate + 1 + d.rng.Int64n(121)
		qty := d.rng.Int64n(50) + 1
		price := (90000 + d.rng.Int64n(110000)) * qty / 100
		rf := int64(2) // N
		if ship <= Date(1995, 6, 17) {
			rf = d.rng.Int64n(2) // R or A for shipped-by-cutoff
		}
		ls := int64(0) // O
		if ship <= Date(1995, 6, 17) {
			ls = 1 // F
		}
		d.L.AppendLoad([]int64{
			ord,
			d.rng.Int64n(nPart),
			d.rng.Int64n(nSupp),
			i % 7,
			qty * 100,
			price,
			d.rng.Int64n(11), // discount 0.00..0.10 in hundredths
			d.rng.Int64n(9),  // tax
			rf,
			ls,
			ship,
			odate + 1 + d.rng.Int64n(121),
			ship + 1 + d.rng.Int64n(30),
			instr.Code(instructs[d.rng.Intn(4)]),
			mode.Code(modes[d.rng.Intn(7)]),
		})
	}
}
