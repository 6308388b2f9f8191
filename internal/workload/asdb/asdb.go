// Package asdb implements a clone of the Azure SQL Database Benchmark
// (ASDB): a synthetic OLTP workload over fixed-size, scaling, and growing
// tables, driven by 128 client threads issuing a CRUD mix. The paper runs
// it at scale factors 2000 (51 GB, fits in memory) and 6000 (153 GB,
// does not).
//
// Scale mapping: scale factor units each contribute ~25.6 MB of nominal
// data (matching Table 2's 51.13 GB at SF 2000), split across two scaling
// tables; the growing table starts small and grows with inserts; fixed
// tables do not scale.
package asdb

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config selects the scale factor and generation density.
type Config struct {
	SF int
	// ActualRowsPerSF controls down-scaling of the scaling tables
	// (default 30 actual rows per SF unit for the big table).
	ActualRowsPerSF int
	Seed            int64
}

// Per-SF nominal cardinalities, tuned so SF 2000 lands near Table 2's
// 51.13 GB of data with ~0.21 GB of (clustered-internal) index.
const (
	bigRowsPerSF   = 60000 // x 320 B  = 19.2 MB/SF
	smallRowsPerSF = 40000 // x 160 B  = 6.4 MB/SF
	fixedRows      = 50000
	growInitPerSF  = 1000
)

// Dataset is a generated ASDB database.
type Dataset struct {
	Cfg Config
	DB  *engine.Database

	Fixed, Big, Small, Growing *storage.Table
	PKFixed, PKBig, PKSmall    *access.BTIndex
	PKGrowing, IXGrowing       *access.BTIndex

	rng *sim.RNG
}

func wideSchema(name string, payloadCols, colWidth int) *storage.Schema {
	cols := []storage.Column{{Name: "id", Type: storage.TInt, Width: 8}}
	for i := 0; i < payloadCols; i++ {
		cols = append(cols, storage.Column{
			Name: fmt.Sprintf("v%d", i), Type: storage.TInt, Width: colWidth,
		})
	}
	return storage.NewSchema(name, cols...)
}

// Build generates the dataset.
func Build(cfg Config) *Dataset {
	if cfg.SF <= 0 {
		cfg.SF = 10
	}
	if cfg.ActualRowsPerSF <= 0 {
		cfg.ActualRowsPerSF = 30
	}
	d := &Dataset{Cfg: cfg, rng: sim.NewRNG(cfg.Seed + int64(cfg.SF))}
	db := engine.NewDatabase(fmt.Sprintf("asdb-%d", cfg.SF))
	d.DB = db
	sf := int64(cfg.SF)

	buf := make([]int64, 13) // the widest table; AppendLoad copies

	// Fixed-size reference table.
	d.Fixed = db.AddTable(wideSchema("asdb_fixed", 6, 12), 50)
	for i := int64(0); i < fixedRows/50; i++ {
		d.Fixed.AppendLoad(d.row(buf[:7], i))
	}
	d.PKFixed = db.AddBTIndex("pk_fixed", d.Fixed, []string{"id"}, true, true)

	// Scaling tables: cardinality proportional to SF, constant during
	// the run.
	kBig := int64(bigRowsPerSF / cfg.ActualRowsPerSF)
	d.Big = db.AddTable(wideSchema("asdb_big", 12, 26), kBig)
	for i := int64(0); i < sf*int64(cfg.ActualRowsPerSF); i++ {
		d.Big.AppendLoad(d.row(buf[:13], i))
	}
	d.PKBig = db.AddBTIndex("pk_big", d.Big, []string{"id"}, true, true)

	kSmall := kBig
	d.Small = db.AddTable(wideSchema("asdb_small", 9, 17), kSmall)
	for i := int64(0); i < sf*smallRowsPerSF/kSmall; i++ {
		d.Small.AppendLoad(d.row(buf[:10], i))
	}
	d.PKSmall = db.AddBTIndex("pk_small", d.Small, []string{"id"}, true, true)

	// Growing table: sized like a scaling table initially, then grows and
	// shrinks during the run.
	d.Growing = db.AddTable(wideSchema("asdb_growing", 8, 20), kBig)
	for i := int64(0); i < sf*growInitPerSF/kBig+4; i++ {
		d.Growing.AppendLoad(d.row(buf[:9], i))
	}
	d.PKGrowing = db.AddBTIndex("pk_growing", d.Growing, []string{"id"}, true, true)
	d.IXGrowing = db.AddBTIndex("ix_growing_v0", d.Growing, []string{"v0"}, false, false)
	return d
}

// row fills r with id and a generated payload and returns it.
func (d *Dataset) row(r []int64, id int64) []int64 {
	r[0] = id
	for i := 1; i < len(r); i++ {
		r[i] = d.rng.Int64n(1 << 30)
	}
	return r
}

// Mix is the ASDB operation mix in percent.
type Mix struct {
	PointRead float64 // single-row select on a scaling table
	RangeRead float64 // short range scan
	JoinRead  float64 // point read joined to the fixed table
	Update    float64 // single-row update
	Insert    float64 // insert into the growing table
	Delete    float64 // delete from the growing table
}

// DefaultMix returns the CRUD balance of the benchmark.
func DefaultMix() Mix {
	return Mix{
		PointRead: 35,
		RangeRead: 15,
		JoinRead:  10,
		Update:    20,
		Insert:    14,
		Delete:    6,
	}
}

// Stats counts operations.
type Stats struct {
	ByType map[string]int
	Total  int
}

type client struct {
	d    *Dataset
	sess *engine.Session
	g    *sim.RNG
	zBig *sim.Zipf
}

// The statement bodies live in serving.go so the network catalog can run
// them too; the closed-loop methods only pick the keys. Begin draws no
// randomness, so hoisting the key draw above it preserves the driver's
// RNG stream exactly.

func (c *client) pointRead() bool {
	return c.d.PointReadAt(c.sess, c.zBig.Next(c.g))
}

func (c *client) rangeRead() bool {
	return c.d.RangeReadAt(c.sess, c.g.Int64n(c.d.Small.NominalRows()))
}

func (c *client) joinRead() bool {
	fid := c.g.Int64n(c.d.Fixed.NominalRows())
	nid := c.zBig.Next(c.g)
	return c.d.JoinReadAt(c.sess, fid, nid)
}

func (c *client) update() bool {
	return c.d.UpdateAt(c.sess, c.zBig.Next(c.g))
}

func (c *client) insert() bool {
	return c.d.InsertRow(c.sess)
}

func (c *client) del() bool {
	return c.d.DeleteAt(c.sess, c.g.Int64n(c.d.Growing.NominalRows()))
}

// RunClients spawns the closed-loop client threads (the paper uses 128)
// until the given simulated time or server stop.
func RunClients(srv *engine.Server, d *Dataset, clients int, mix Mix, until sim.Time, st *Stats) {
	if st.ByType == nil {
		st.ByType = make(map[string]int)
	}
	type entry struct {
		name  string
		label string // query-stats template, "asdb.<name>"
		w     float64
		fn    func(*client) bool
	}
	entries := []entry{
		{name: "PointRead", w: mix.PointRead, fn: (*client).pointRead},
		{name: "RangeRead", w: mix.RangeRead, fn: (*client).rangeRead},
		{name: "JoinRead", w: mix.JoinRead, fn: (*client).joinRead},
		{name: "Update", w: mix.Update, fn: (*client).update},
		{name: "Insert", w: mix.Insert, fn: (*client).insert},
		{name: "Delete", w: mix.Delete, fn: (*client).del},
	}
	var totalW float64
	for i := range entries {
		entries[i].label = "asdb." + entries[i].name
		totalW += entries[i].w
	}
	// One skew table for every client: a Zipf is immutable (Next takes the
	// RNG) and building it draws no randomness.
	zBig := sim.NewZipf(d.Big.NominalRows(), 0.6)
	for i := 0; i < clients; i++ {
		srv.Sim.Spawn("asdb-client", func(p *sim.Proc) {
			c := &client{
				d:    d,
				sess: srv.Open(p).BindCtx(),
				g:    srv.Sim.RNG().Fork(),
				zBig: zBig,
			}
			defer c.sess.Close()
			for !srv.Stopped() && p.Now() < until {
				pick := c.g.Float64() * totalW
				for _, e := range entries {
					pick -= e.w
					if pick <= 0 {
						// Exec attaches per-attempt statement counters,
						// folds the attempt into the server's query stats
						// under e.label, and retries transient aborts under
						// the session policy.
						ok := c.sess.Exec(e.label, c.g, func() bool { return e.fn(c) })
						// Without a retry policy, count every attempt as
						// the pre-retry driver did (aborts included).
						if ok || !c.sess.Retry.Enabled() {
							st.ByType[e.name]++
							st.Total++
						}
						break
					}
				}
			}
		})
	}
}
