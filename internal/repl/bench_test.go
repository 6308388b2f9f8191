package repl

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload/asdb"
)

// BenchmarkApplyBatch: the standby applier alone — append a shipped batch
// to the standby's WAL as shared records, wait for it to be durable, walk
// it — fed batches of 16 records straight into the inbox, no shipper and
// no link. One iteration is one record; the records carry no page and no
// ops, so what is left is the applier's own bookkeeping. The feeder
// reuses one batch's records, numbering them with the LSNs a primary
// would have given them; the applier has walked the previous batch
// before they are renumbered.
func BenchmarkApplyBatch(b *testing.B) {
	const batch = 16
	acfg := asdb.Config{SF: 1, ActualRowsPerSF: 2, Seed: 1}
	primary := engine.NewServer(engine.DefaultConfig())
	primary.AttachDB(asdb.Build(acfg).DB)
	primary.ArmRecovery(engine.RecoveryOptions{})
	c := New(primary, Config{Replicas: 1, NewImage: func() *engine.Database { return asdb.Build(acfg).DB }})
	s := c.Standbys[0]
	s.Srv.Log.Start()
	c.runApplier(s)

	recs := make([]*wal.Record, batch)
	for i := range recs {
		recs[i] = &wal.Record{Type: wal.RecBegin, Txn: int64(i + 1), Bytes: 100}
	}
	c.sm.Spawn("feeder", func(p *sim.Proc) {
		var lsn int64
		for pos := 0; pos < b.N; pos += batch {
			for _, r := range recs {
				lsn += r.Bytes
				r.LSN = lsn
			}
			s.inbox = append(s.inbox, recs...)
			s.inboxQ.WakeAll(c.sm)
			c.ackQ.Wait(p) // the applier's wake once the batch is applied
		}
		s.shipperDone = true
		s.inboxQ.WakeAll(c.sm)
	})
	b.ReportAllocs()
	b.ResetTimer()
	c.sm.Run(sim.Time(b.N+1) * sim.Time(sim.Second))
	b.StopTimer()
	if !s.applierDone || len(s.Srv.Log.Records()) < b.N {
		b.Fatalf("applier done %v with %d of %d records in the standby log", s.applierDone, len(s.Srv.Log.Records()), b.N)
	}
	s.Srv.Stop()
	c.sm.Run(c.sm.Now() + sim.Time(sim.Second))
}
