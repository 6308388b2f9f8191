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

// op is one row of the ASDB statement catalogue: the name the statement
// goes by on the wire, in query stats and in Stats.ByType; its share of
// the benchmark's CRUD balance in percent; run, the closed-loop client
// method that draws the keys; and serve, which maps a served request's
// one wire argument onto valid keys instead. Both end in the *At bodies
// of serving.go.
type op struct {
	name   string
	weight float64
	run    func(*client) bool
	serve  func(d *Dataset, sess *engine.Session, arg uint64) bool
}

var ops = []op{
	{"asdb.PointRead", 35, (*client).pointRead, func(d *Dataset, sess *engine.Session, arg uint64) bool {
		return d.PointReadAt(sess, wireKey(d.Big, arg))
	}},
	{"asdb.RangeRead", 15, (*client).rangeRead, func(d *Dataset, sess *engine.Session, arg uint64) bool {
		return d.RangeReadAt(sess, wireKey(d.Small, arg))
	}},
	{"asdb.JoinRead", 10, (*client).joinRead, func(d *Dataset, sess *engine.Session, arg uint64) bool {
		return d.JoinReadAt(sess, wireKey(d.Fixed, arg), wireKey(d.Big, arg))
	}},
	{"asdb.Update", 20, (*client).update, func(d *Dataset, sess *engine.Session, arg uint64) bool {
		return d.UpdateAt(sess, wireKey(d.Big, arg))
	}},
	{"asdb.Insert", 14, (*client).insert, func(d *Dataset, sess *engine.Session, _ uint64) bool {
		return d.InsertRow(sess)
	}},
	{"asdb.Delete", 6, (*client).del, func(d *Dataset, sess *engine.Session, arg uint64) bool {
		return d.DeleteAt(sess, wireKey(d.Growing, arg))
	}},
}

// wireKey maps a wire argument onto a nominal row of t.
func wireKey(t *storage.Table, arg uint64) int64 {
	return int64(arg % uint64(t.NominalRows()))
}

// Mix is a weighted statement list: what RunClients draws from, and what
// the open-loop generator reads statement names and weights off.
type Mix []engine.Stmt[client]

// DefaultMix returns the benchmark's CRUD balance: every catalogue
// statement at its default weight, in catalogue order.
func DefaultMix() Mix {
	mix := make(Mix, len(ops))
	for i, o := range ops {
		mix[i] = engine.Stmt[client]{Name: o.name, Weight: o.weight, Run: o.run}
	}
	return mix
}

// Stats counts operations by statement name.
type Stats = engine.MixStats

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
	// One skew table for every client: a Zipf is immutable (Next takes the
	// RNG) and building it draws no randomness.
	zBig := sim.NewZipf(d.Big.NominalRows(), 0.6)
	engine.RunMix(srv, clients, mix, until, st, func(sess *engine.Session, g *sim.RNG) *client {
		return &client{d: d, sess: sess, g: g, zBig: zBig}
	})
}
