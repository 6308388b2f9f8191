package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/asdb"
	"repro/internal/workload/htap"
	"repro/internal/workload/openloop"
	"repro/internal/workload/tpce"
	"repro/internal/workload/tpch"
)

// sizes are one workload's scale parameters. The full sizes live in the
// workloads table below; the tests substitute harness.TestOptions-scale
// ones, so the product-path equivalence test and the smoke test drive
// exactly the code the benchmark times.
type sizes struct {
	SF      int // scale factor (asdb, tpch) or customers (htap)
	Density int // actual rows generated per nominal unit, as the builders define it
	Clients int // closed-loop clients / users
	Warmup  sim.Duration
	Measure sim.Duration
	Rate    float64 // serve_openloop: connection arrivals per sim-second
	// QueryFrac is serve_openloop's share of analytical statements. The
	// benchmark sends none (see README.md); the equivalence test sets the
	// 0.02 harness.ServeOnce hard-codes.
	QueryFrac float64
}

// workload is one benchmark cell: setup builds the simulated machine,
// the returned closure runs it and reports what the simulation did.
type workload struct {
	Name  string
	Why   string
	Sizes sizes
	Setup func(seed int64, sz sizes, tr *tracer) func() simResult
}

// latencyLimit is the fixed reply deadline a serve_openloop request must
// meet to count as completed: shed, refused, dropped and slower replies
// all count as failed.
const latencyLimit = 5 * sim.Second

// drainWindow is how long every cell keeps the clock running after Stop
// so procs unwind (the harness's 600-sim-second drain).
const drainWindow = 600 * sim.Second

var workloads = []workload{
	{
		Name: "asdb_oltp",
		Why:  "write-heavy closed-loop OLTP, 128 clients: most kernel events per op, lock/txn/btree/buffer/wal hot, LLC model a minor share of host time",
		Sizes: sizes{SF: 2000, Density: 10, Clients: 128,
			Warmup: 200 * sim.Millisecond, Measure: 400 * sim.Millisecond},
		Setup: setupASDB,
	},
	{
		Name:  "tpch_power",
		Why:   "read-only analytics, 22 queries once each at MAXDOP 32: exec/opt/colstore under the LLC model, few kernel events; the bypass for kernel and OLTP-engine changes",
		Sizes: sizes{SF: 30, Density: 400},
		Setup: setupTPCH,
	},
	{
		Name: "htap_mixed",
		Why:  "99 TPC-E users plus one analyst on a database larger than memory: lock contention with victim aborts, scans beside writes, buffer misses and SSD reads",
		Sizes: sizes{SF: 15000, Density: 4, Clients: 99,
			Warmup: 500 * sim.Millisecond, Measure: 1500 * sim.Millisecond},
		Setup: setupHTAP,
	},
	{
		Name: "serve_openloop",
		Why:  "the only path through client, net, proto, serve and engine.Session: open-loop Poisson connections at 40% of the saturation rate, so queueing shows in the tail and nothing is shed",
		Sizes: sizes{SF: 1000, Density: 10, Rate: 2000,
			Warmup: 500 * sim.Millisecond, Measure: sim.Second},
		Setup: setupServe,
	},
	{
		Name: "repl_quorum",
		Why:  "asdb_oltp on a primary with two standbys, quorum 1, 200 MB/s storage: the same WAL appended, shipped and applied, commits waiting on acks over simulated links",
		Sizes: sizes{SF: 2000, Density: 10, Clients: 128,
			Warmup: 200 * sim.Millisecond, Measure: 400 * sim.Millisecond},
		Setup: setupRepl,
	},
}

// simResult is what one repetition's simulation did. Everything in it is
// a function of (workload, sizes, seed) alone, which digest() pins.
type simResult struct {
	Ops       int64   // operations completed inside the measure window
	WindowS   float64 // sim-seconds Ops is divided by for sim_ops_per_s
	Attempted int64   // operations attempted (whole run for serve_openloop)
	Failed    int64   // of those, not completed as the workload defines it
	P50Ms     float64
	P95Ms     float64
	P99Ms     float64
	LatN      int64 // latency samples behind the percentiles

	Delta metrics.Counters   // primary's counters over the measure window
	Layer map[string]float64 // counts read from serve/openloop/repl accessors
	Tel   *telemetry.Snapshot
	Live  int // sim procs still alive after the drain

	Err error // a failed output check
}

// digest hashes every sim-deterministic output of a repetition.
func (r simResult) digest() string {
	keys := make([]string, 0, len(r.Layer))
	for k := range r.Layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "%d %x %d %d %x %x %x %d %d %+v", r.Ops, r.WindowS, r.Attempted,
		r.Failed, r.P50Ms, r.P95Ms, r.P99Ms, r.LatN, r.Live, r.Delta)
	for _, k := range keys {
		fmt.Fprintf(h, " %s=%x", k, r.Layer[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// bootServer is the setup every cell shares: engine.NewServer with the
// paper's machine (32 cores, 40 MB LLC, 64 GB), the dataset attached and
// the buffer pool warmed.
func bootServer(seed int64, tr *tracer, maxDOP int, db *engine.Database) *engine.Server {
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	cfg.MaxDOP = maxDOP // 0 = the allowed cores
	cfg.Telemetry = tr != nil
	var srv *engine.Server
	tr.do("engine.NewServer", func() { srv = engine.NewServer(cfg) })
	tr.do("engine.AttachDB", func() { srv.AttachDB(db) })
	tr.do("engine.WarmBufferPool", func() { srv.WarmBufferPool() })
	return srv
}

// window advances a started server through warmup and the measure
// window and returns the window's counter delta and merged per-template
// latency histogram (metrics.QueryStats, the dm_exec_query_stats
// analogue `dbsense run qstats` prints).
func window(srv *engine.Server, sz sizes, tr *tracer) (metrics.Counters, telemetry.Histogram) {
	tr.do("sim.Run/warmup", func() { srv.Sim.Run(sim.Time(sz.Warmup)) })
	before := *srv.Ctr
	qb := srv.QStats.Snapshot()
	tr.do("sim.Run/measure", func() { srv.Sim.Run(sim.Time(sz.Warmup + sz.Measure)) })
	delta := srv.Ctr.Sub(before)

	was := make(map[string]telemetry.Histogram, len(qb))
	for _, r := range qb {
		was[r.Query] = r.Hist
	}
	// MaxNs stays the whole-run maximum: Quantile uses it only to clamp
	// the top bucket's upper edge.
	var h telemetry.Histogram
	for _, r := range srv.QStats.Snapshot() {
		d, b := r.Hist, was[r.Query]
		for i := range d.Counts {
			d.Counts[i] -= b.Counts[i]
		}
		d.N -= b.N
		d.SumNs -= b.SumNs
		h.Merge(d)
	}
	return delta, h
}

// stopAndDrain stops the server and runs the clock on so every proc
// that observes Stopped unwinds.
func stopAndDrain(srv *engine.Server, tr *tracer) {
	tr.do("engine.Stop", func() { srv.Stop() })
	tr.do("sim.Run/drain", func() { srv.Sim.Run(srv.Sim.Now() + sim.Time(drainWindow)) })
}

// closedLoop fills the result fields shared by the three closed-loop
// OLTP cells: an operation is a transaction the driver saw through to
// commit; a failed one aborted (a lock-timeout victim) and, as under
// `dbsense`, which sets no retry policy, was not resubmitted.
func closedLoop(srv *engine.Server, sz sizes, delta metrics.Counters, h telemetry.Histogram) simResult {
	return simResult{
		Ops:       delta.TxnCommits,
		WindowS:   sz.Measure.Seconds(),
		Attempted: delta.TxnCommits + delta.TxnAborts,
		Failed:    delta.TxnAborts,
		P50Ms:     h.Quantile(0.50) / 1e6,
		P95Ms:     h.Quantile(0.95) / 1e6,
		P99Ms:     h.Quantile(0.99) / 1e6,
		LatN:      h.N,
		Delta:     delta,
		Tel:       srv.Tel.Snapshot(),
		Live:      srv.Sim.Live(),
	}
}

func setupASDB(seed int64, sz sizes, tr *tracer) func() simResult {
	var d *asdb.Dataset
	tr.do("asdb.Build", func() {
		d = asdb.Build(asdb.Config{SF: sz.SF, ActualRowsPerSF: sz.Density, Seed: seed})
	})
	srv := bootServer(seed, tr, 0, d.DB)
	return func() simResult {
		tr.do("engine.Start", func() { srv.Start() })
		var st asdb.Stats
		tr.do("drivers.Spawn", func() {
			asdb.RunClients(srv, d, sz.Clients, asdb.DefaultMix(), sim.Time(sz.Warmup+10*sz.Measure), &st)
		})
		delta, h := window(srv, sz, tr)
		stopAndDrain(srv, tr)
		var r simResult
		tr.do("collect", func() { r = closedLoop(srv, sz, delta, h) })
		return r
	}
}

func setupTPCH(seed int64, sz sizes, tr *tracer) func() simResult {
	const dop = 32
	var d *tpch.Dataset
	tr.do("tpch.Build", func() {
		d = tpch.Build(tpch.Config{SF: sz.SF, ActualLineitemPerSF: sz.Density, Seed: seed})
	})
	srv := bootServer(seed, tr, dop, d.DB)
	srv.CPUs.AllowN(dop)
	return func() simResult {
		tr.do("engine.Start", func() { srv.Start() })
		before := *srv.Ctr
		ms := make([]float64, 0, tpch.NumQueries)
		var total sim.Duration
		tr.do("sim.Run/measure", func() {
			g := sim.NewRNG(seed + dop)
			for _, qi := range g.Perm(tpch.NumQueries) {
				el := tpch.QueryTiming(srv, d, qi+1, dop, 0, g)
				total += el
				ms = append(ms, float64(el)/float64(sim.Millisecond))
			}
		})
		delta := srv.Ctr.Sub(before)
		tr.do("engine.Stop", func() { srv.Stop() })
		tr.do("sim.Run/drain", func() { srv.Sim.Run(srv.Sim.Now() + sim.Time(60*sim.Second)) })
		var r simResult
		tr.do("collect", func() {
			sort.Float64s(ms)
			failed := delta.QueriesFailed + delta.DeadlineKills
			r = simResult{
				Ops:       delta.QueriesDone,
				WindowS:   total.Seconds(),
				Attempted: tpch.NumQueries,
				Failed:    failed,
				P50Ms:     telemetry.PercentileSorted(ms, 50),
				P95Ms:     telemetry.PercentileSorted(ms, 95),
				P99Ms:     telemetry.PercentileSorted(ms, 99),
				LatN:      int64(len(ms)),
				Delta:     delta,
				Tel:       srv.Tel.Snapshot(),
				Live:      srv.Sim.Live(),
			}
			if delta.QueriesDone != r.Attempted || failed != 0 {
				r.Err = fmt.Errorf("tpch_power: %d of %d queries done, %d failed",
					delta.QueriesDone, r.Attempted, failed)
			}
		})
		return r
	}
}

func setupHTAP(seed int64, sz sizes, tr *tracer) func() simResult {
	var d *tpce.Dataset
	tr.do("htap.Build", func() {
		d = htap.Build(htap.Config{Customers: sz.SF, ActualTradesPerCustomer: sz.Density, Seed: seed})
	})
	srv := bootServer(seed, tr, 0, d.DB)
	return func() simResult {
		tr.do("engine.Start", func() { srv.Start() })
		var st htap.Stats
		tr.do("drivers.Spawn", func() {
			htap.Run(srv, d, sz.Clients, sim.Time(sz.Warmup+10*sz.Measure), &st)
		})
		delta, h := window(srv, sz, tr)
		stopAndDrain(srv, tr)
		var r simResult
		tr.do("collect", func() {
			r = closedLoop(srv, sz, delta, h)
			r.Ops += delta.QueriesDone
			r.Attempted += delta.QueriesDone + delta.QueriesFailed
			r.Failed += delta.QueriesFailed
		})
		return r
	}
}

func setupServe(seed int64, sz sizes, tr *tracer) func() simResult {
	var d *asdb.Dataset
	tr.do("asdb.Build", func() {
		d = asdb.Build(asdb.Config{SF: sz.SF, ActualRowsPerSF: sz.Density, Seed: seed})
	})
	srv := bootServer(seed, tr, 0, d.DB)
	var f *serve.Frontend
	tr.do("serve.New", func() { f = serve.New(srv, d, serve.Config{}) })
	horizon := sz.Warmup + sz.Measure
	var plan *openloop.Plan
	tr.do("openloop.Build", func() {
		plan = openloop.Build(openloop.Config{Rate: sz.Rate, Horizon: horizon, QueryFrac: sz.QueryFrac},
			srv.Sim.RNG().Fork())
	})
	return func() simResult {
		tr.do("engine.Start", func() { srv.Start() })
		var startErr error
		tr.do("serve.Start", func() { startErr = f.Start() })
		if startErr != nil {
			return simResult{Err: fmt.Errorf("serve_openloop: %w", startErr)}
		}
		var st openloop.Stats
		tr.do("drivers.Spawn", func() { openloop.Run(srv.Sim, f.Net, f.Cfg.Addr, plan, &st) })
		end := sim.Time(horizon)
		grace := end + sim.Time(10*sim.Second)
		tr.do("sim.Run/warmup", func() { srv.Sim.Run(sim.Time(sz.Warmup)) })
		before := *srv.Ctr
		tr.do("sim.Run/measure", func() { srv.Sim.Run(end) })
		delta := srv.Ctr.Sub(before)
		// In-flight requests get their replies before the stop, so the
		// tail near the window edge is observed rather than cut off.
		tr.do("sim.Run/grace", func() { srv.Sim.Run(grace) })
		stopAndDrain(srv, tr)

		var r simResult
		tr.do("collect", func() {
			var okAll, okWin int64
			var lat []float64
			for _, s := range st.Samples {
				if !s.OK || s.Lat > latencyLimit {
					continue
				}
				okAll++
				if s.At > sim.Time(sz.Warmup) && s.At <= grace {
					okWin++
					lat = append(lat, float64(s.Lat)/float64(sim.Millisecond))
				}
			}
			sort.Float64s(lat)
			r = simResult{
				Ops:       okWin,
				WindowS:   sz.Measure.Seconds(),
				Attempted: int64(plan.NReq),
				Failed:    int64(plan.NReq) - okAll,
				P50Ms:     telemetry.PercentileSorted(lat, 50),
				P95Ms:     telemetry.PercentileSorted(lat, 95),
				P99Ms:     telemetry.PercentileSorted(lat, 99),
				LatN:      int64(len(lat)),
				Delta:     delta,
				Tel:       srv.Tel.Snapshot(),
				Live:      srv.Sim.Live(),
				Layer: map[string]float64{
					"serve.accepted_conns":   float64(f.Ctr.Accepted),
					"serve.served":           float64(f.Ctr.Served),
					"serve.shed":             float64(f.Ctr.Shed),
					"serve.degraded_queries": float64(f.Ctr.Degraded),
					"client.sent":            float64(st.Sent),
					"client.refused_dials":   float64(st.Refused),
					"client.dropped_reqs":    float64(st.Dropped),
					"client.offered_rps":     plan.OfferedRPS(),
				},
			}
			switch {
			case st.Sent != st.OK+st.Shed+st.Failed+st.Dropped:
				r.Err = fmt.Errorf("serve_openloop: accounting open: sent %d != ok %d + shed %d + failed %d + dropped %d",
					st.Sent, st.OK, st.Shed, st.Failed, st.Dropped)
			case st.Failed != 0 || f.Ctr.BadRequest != 0:
				r.Err = fmt.Errorf("serve_openloop: %d failed replies, %d bad requests",
					st.Failed, f.Ctr.BadRequest)
			}
		})
		return r
	}
}

func setupRepl(seed int64, sz sizes, tr *tracer) func() simResult {
	const bandwidthMBps = 200
	acfg := asdb.Config{SF: sz.SF, ActualRowsPerSF: sz.Density, Seed: seed}
	var d *asdb.Dataset
	tr.do("asdb.Build", func() { d = asdb.Build(acfg) })
	srv := bootServer(seed, tr, 0, d.DB)
	srv.BlkIO.SetReadLimit(bandwidthMBps)
	srv.BlkIO.SetWriteLimit(bandwidthMBps)
	srv.ArmRecovery(engine.RecoveryOptions{})
	var cl *repl.Cluster
	tr.do("repl.New", func() {
		cl = repl.New(srv, repl.Config{
			Mode: repl.ModeQuorum, Quorum: 1, Replicas: 2, TraceCommits: tr != nil,
			NewImage: func() *engine.Database { return asdb.Build(acfg).DB },
		})
	})
	for _, s := range cl.Standbys {
		s.Srv.BlkIO.SetReadLimit(bandwidthMBps)
		s.Srv.BlkIO.SetWriteLimit(bandwidthMBps)
	}
	return func() simResult {
		tr.do("engine.Start", func() { srv.Start() })
		tr.do("repl.Start", func() { cl.Start() })
		end := sim.Time(sz.Warmup + sz.Measure)
		var st asdb.Stats
		tr.do("drivers.Spawn", func() {
			asdb.RunClients(srv, d, sz.Clients, asdb.DefaultMix(), end, &st)
		})
		delta, h := window(srv, sz, tr)
		tr.do("sim.Run/quiesce", func() {
			for t := end; t < end+sim.Time(drainWindow) && !cl.Quiesced(); t += sim.Time(sim.Second) {
				srv.Sim.Run(t + sim.Time(sim.Second))
			}
		})
		quiesced := cl.Quiesced()
		var digestErr error
		if quiesced {
			tr.do("repl.CheckDigests", func() { digestErr = cl.CheckDigests() })
		}
		stopAndDrain(srv, tr)
		tr.do("repl.Shutdown", func() {
			cl.Shutdown()
			srv.Sim.Run(srv.Sim.Now() + sim.Time(10*sim.Second))
		})

		var r simResult
		tr.do("collect", func() {
			r = closedLoop(srv, sz, delta, h)
			unacked := srv.Ctr.ReplUnackedCommits
			r.Failed += unacked
			var applied int64
			for _, s := range cl.Standbys {
				applied += s.Srv.Ctr.ReplAppliedTxns
			}
			r.Layer = map[string]float64{
				"repl.shipped_bytes":   float64(srv.Ctr.ReplShippedBytes),
				"repl.applied_txns":    float64(applied),
				"repl.total_commits":   float64(srv.Ctr.TxnCommits),
				"repl.max_lag_kb":      float64(cl.MaxLagBytes()) / 1024,
				"repl.unacked_commits": float64(unacked),
			}
			switch {
			case !quiesced:
				r.Err = fmt.Errorf("repl_quorum: replication pipeline did not quiesce")
			case digestErr != nil:
				r.Err = fmt.Errorf("repl_quorum: %w", digestErr)
			case unacked != 0:
				r.Err = fmt.Errorf("repl_quorum: %d un-acked commits", unacked)
			}
		})
		return r
	}
}
