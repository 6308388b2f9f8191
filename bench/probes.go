package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/iodev"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/net"
	"repro/internal/proto"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload/asdb"
	"repro/internal/workload/tpch"
)

// A probe is a fixed-iteration loop over one layer's exported API, run
// in isolation: the host cost of one call into the layer. A change to
// layer X should move probe.X.* first, and host_wall_us_per_op on the
// workloads where X's share of host time is high second.
type probe struct {
	Name string // <layer>.<op>
	// Run prepares the layer and returns the number of calls its loop
	// makes and the loop itself.
	Run func() (calls int, loop func())
}

const probeRounds = 3

// hour is long enough for any probe's procs to finish.
const hour = sim.Time(3600 * sim.Second)

var probes = []probe{
	{"sim.event", func() (int, func()) {
		const procs, sleeps = 64, 1500
		sm := sim.New(1)
		for i := 0; i < procs; i++ {
			sm.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					p.Sleep(sim.Microsecond)
				}
			})
		}
		return procs * sleeps, func() { sm.Run(hour) }
	}},
	{"cache.llc_access", func() (int, func()) {
		const batches, perBatch = 2000, 4096
		llc := cache.New(cache.PaperLLC())
		g := sim.NewRNG(1)
		return batches * perBatch, func() {
			for i := 0; i < batches; i++ {
				llc.Random(0, 1<<30, perBatch, i%4 == 0, g.Float64)
			}
		}
	}},
	{"btree.seek", func() (int, func()) {
		const keys, seeks = 100_000, 200_000
		t := btree.New()
		for i := int64(0); i < keys; i++ {
			t.Insert(btree.Key{i * 7 % keys}, i)
		}
		g := sim.NewRNG(1)
		return seeks, func() {
			for i := 0; i < seeks; i++ {
				t.Seek(btree.Key{g.Int64n(keys)})
			}
		}
	}},
	{"btree.insert", func() (int, func()) {
		const keys = 100_000
		t := btree.New()
		return keys, func() {
			for i := int64(0); i < keys; i++ {
				t.Insert(btree.Key{i * 7919 % keys}, i)
			}
		}
	}},
	{"buffer.probe", func() (int, func()) {
		const pages, probes = 4096, 200_000
		sm := sim.New(1)
		ctr := &metrics.Counters{}
		bp := buffer.New(sm, iodev.New(iodev.PaperSSD(), ctr), ctr, 1<<30)
		f := &storage.File{ID: 1, Name: "probe", Pages: pages}
		bp.Register(f)
		bp.WarmFile(f)
		g := sim.NewRNG(1)
		sm.Spawn("prober", func(p *sim.Proc) {
			for i := 0; i < probes; i++ {
				bp.Probe(p, f, g.Int64n(pages), false, 0)
			}
		})
		return probes, func() { sm.Run(hour) }
	}},
	{"lock.acquire_release", func() (int, func()) {
		const pairs = 200_000
		sm := sim.New(1)
		m := lock.NewManager(sm, &metrics.Counters{})
		sm.Spawn("locker", func(p *sim.Proc) {
			for i := int64(0); i < pairs; i++ {
				k := lock.Key{Obj: 1, Row: i % 1024}
				m.Acquire(p, 1, k, lock.X)
				m.Release(1, k)
			}
		})
		return pairs, func() { sm.Run(hour) }
	}},
	{"wal.append_commit", func() (int, func()) {
		const committers, commits = 32, 1000
		cfg := engine.DefaultConfig()
		srv := engine.NewServer(cfg)
		srv.Log.Start()
		left := committers
		for i := 0; i < committers; i++ {
			srv.Sim.Spawn("committer", func(p *sim.Proc) {
				for j := 0; j < commits; j++ {
					if _, err := srv.Log.Commit(p, 300); err != nil {
						panic(err) // the log is not stopped before the loop ends
					}
				}
				if left--; left == 0 {
					srv.Log.Stop()
				}
			})
		}
		return committers * commits, func() { srv.Sim.Run(hour) }
	}},
	{"proto.encode_decode", func() (int, func()) {
		const frames = 300_000
		return frames, func() {
			for i := uint64(0); i < frames; i++ {
				buf := proto.EncodeRequest(proto.KExec, i, proto.Request{Name: "asdb.PointRead", Arg: i})
				fr, _, err := proto.Decode(buf)
				if err == nil {
					_, err = proto.DecodeRequest(fr.Payload)
				}
				if err != nil {
					panic(err) // a frame this package just encoded
				}
			}
		}
	}},
	{"net.send_recv", func() (int, func()) {
		const trips = 30_000
		sm := sim.New(1)
		nw := net.New(sm, net.Config{})
		ln, err := nw.Listen("echo")
		if err != nil {
			panic(err) // fresh network, first listener
		}
		sm.Spawn("echo", func(p *sim.Proc) {
			c, err := ln.Accept(p)
			for err == nil {
				var b []byte
				if b, err = c.Recv(p); err == nil {
					err = c.Send(p, b)
				}
			}
		})
		sm.Spawn("caller", func(p *sim.Proc) {
			c, err := nw.Dial(p, "echo")
			if err != nil {
				panic(err)
			}
			frame := make([]byte, 64)
			for i := 0; i < trips; i++ {
				if err := c.Send(p, frame); err != nil {
					panic(err)
				}
				if _, err := c.Recv(p); err != nil {
					panic(err)
				}
			}
			c.Close()
		})
		return trips, func() { sm.Run(hour) }
	}},
	{"exec.scan_filter_agg_row", func() (int, func()) {
		const rows = 200_000
		sm := sim.New(1)
		ctr := &metrics.Counters{}
		m := hw.New(sm, hw.PaperSpec(), ctr)
		dev := iodev.New(iodev.PaperSSD(), ctr)
		env := &exec.Env{
			Sim: sm, M: m, BP: buffer.New(sm, dev, ctr, 1<<30), Dev: dev, Ctr: ctr,
			Cost: access.DefaultCost(), RNG: sim.NewRNG(7),
			Cores: []int{0, 1, 2, 3}, Dop: 4,
			TempRegion: m.ReserveRegion(1 << 30),
			Vectorized: true,
		}
		t := storage.NewTable(1, storage.NewSchema("probe_orders",
			storage.Column{Name: "okey", Type: storage.TInt, Width: 8},
			storage.Column{Name: "ckey", Type: storage.TInt, Width: 8},
			storage.Column{Name: "amount", Type: storage.TInt, Width: 8}), 5)
		for i := int64(0); i < rows; i++ {
			t.AppendLoad([]int64{i, i % 97, (i * 13) % 1000})
		}
		t.Data.Region = m.ReserveRegion(t.NominalDataBytes())
		env.BP.Register(t.Data)
		root := &exec.Node{
			Kind: exec.KHashAgg,
			Left: &exec.Node{
				Kind: exec.KRowScan, Heap: access.Heap{T: t}, Proj: []int{1, 2},
				Pred: func(r exec.Row) bool { return r[1] < 400 }, NPred: 1,
				Weight: t.K, Parallel: true, Name: t.Name,
			},
			Groups: []int{0},
			Aggs:   []exec.AggSpec{{Kind: exec.AggSum, Col: 1}, {Kind: exec.AggCount}},
			Weight: t.K, Parallel: true,
		}
		sm.Spawn("query", func(p *sim.Proc) {
			if out, _ := exec.Run(p, env, root); len(out) != 97 {
				panic(fmt.Sprintf("exec probe: %d groups, want 97", len(out)))
			}
		})
		return rows, func() { sm.Run(hour) }
	}},
	{"opt.plan_q20", func() (int, func()) {
		const plans = 300
		d := tpch.Build(tpch.Config{SF: 10, ActualLineitemPerSF: 40, Seed: 1})
		srv := engine.NewServer(engine.DefaultConfig())
		srv.AttachDB(d.DB)
		g := sim.NewRNG(1)
		return plans, func() {
			for i := 0; i < plans; i++ {
				srv.ExplainQuery(d.Query(20, g), 32)
			}
		}
	}},
	{"serve.exec_roundtrip", func() (int, func()) {
		const reqs = 10_000
		d := asdb.Build(asdb.Config{SF: 100, ActualRowsPerSF: 4, Seed: 1})
		srv := engine.NewServer(engine.DefaultConfig())
		srv.AttachDB(d.DB)
		srv.WarmBufferPool()
		srv.Start()
		f := serve.New(srv, d, serve.Config{})
		if err := f.Start(); err != nil {
			panic(err) // fresh network, first listener
		}
		srv.Sim.Spawn("caller", func(p *sim.Proc) {
			cl, err := client.Dial(p, f.Net, f.Cfg.Addr, "probe")
			if err != nil {
				panic(err)
			}
			for i := uint64(0); i < reqs; i++ {
				if rep, err := cl.Exec(p, "asdb.PointRead", i*7919); err != nil || !rep.OK {
					panic(fmt.Sprintf("serve probe: reply %+v, err %v", rep, err))
				}
			}
			cl.Close(p)
			srv.Stop()
		})
		return reqs, func() { srv.Sim.Run(hour) }
	}},
}

// runProbes runs every probe probeRounds times and returns the median
// host ns and heap objects per call as probe.<name>_ns / _allocs.
func runProbes() map[string]float64 {
	out := make(map[string]float64, 2*len(probes))
	for _, p := range probes {
		var ns, allocs []float64
		for round := 0; round < probeRounds; round++ {
			calls, loop := p.Run()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			loop()
			el := time.Since(t0)
			runtime.ReadMemStats(&after)
			ns = append(ns, float64(el.Nanoseconds())/float64(calls))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(calls))
		}
		out["probe."+p.Name+"_ns"] = median(ns)
		out["probe."+p.Name+"_allocs"] = median(allocs)
	}
	return out
}
