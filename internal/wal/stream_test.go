package wal

import (
	"testing"

	"repro/internal/sim"
)

// TestStreamVisibilityIsDurability checks the stream's visibility rule:
// a record is delivered iff its end-byte LSN is flushed, zero-byte
// records enter with their predecessor, and delivery preserves append
// order exactly.
func TestStreamVisibilityIsDurability(t *testing.T) {
	s, l, _ := setup()
	l.Recording = true
	rd := l.NewStreamReader()
	var got []*Record
	done := false
	s.Spawn("reader", func(p *sim.Proc) {
		for {
			batch, ok := rd.NextBatch(p)
			for _, r := range batch {
				if r.LSN > l.FlushedLSN() {
					t.Errorf("record LSN %d visible with flushed LSN %d", r.LSN, l.FlushedLSN())
				}
				got = append(got, r)
			}
			if !ok {
				done = true
				return
			}
		}
	})
	const txns = 20
	s.Spawn("appender", func(p *sim.Proc) {
		for i := 0; i < txns; i++ {
			id := int64(i + 1)
			end := l.AppendBatch([]*Record{
				{Type: RecBegin, Txn: id}, // zero bytes: shares predecessor's end LSN
				{Type: RecUpdate, Txn: id, Bytes: 700},
				{Type: RecCommit, Txn: id, Bytes: 96},
			})
			if _, err := l.WaitDurable(p, end); err != nil {
				t.Errorf("txn %d: %v", id, err)
			}
		}
		l.Stop()
	})
	s.Run(sim.Time(10 * sim.Second))
	if !done {
		t.Fatal("reader never observed end of stream")
	}
	if len(got) != 3*txns {
		t.Fatalf("reader got %d records, expected %d", len(got), 3*txns)
	}
	for i, r := range got {
		if r != l.Records()[i] {
			t.Fatalf("stream order diverges from append order at %d", i)
		}
	}
}

// TestStreamStopMidBatchDeterministic stops the log while a large
// multi-record AppendBatch is only partially flushed. The reader must
// drain exactly the records the final flush covered — including a flush
// that was in flight at the stop instant — then observe end-of-stream;
// the rest of the batch never appears. Two identical runs must observe
// the identical visible prefix.
func TestStreamStopMidBatchDeterministic(t *testing.T) {
	run := func() (visible []int64, flushed, appended int64) {
		s, l, _ := setup()
		l.Recording = true
		l.MaxFlushBytes = 1 << 10
		rd := l.NewStreamReader()
		done := false
		s.Spawn("reader", func(p *sim.Proc) {
			for {
				batch, ok := rd.NextBatch(p)
				for _, r := range batch {
					visible = append(visible, r.LSN)
				}
				if !ok {
					done = true
					return
				}
			}
		})
		const recs = 64
		s.Spawn("appender", func(p *sim.Proc) {
			batch := make([]*Record, recs)
			for i := range batch {
				batch[i] = &Record{Type: RecUpdate, Txn: 1, Bytes: 512}
			}
			end := l.AppendBatch(batch) // 32 KB: needs 32 separate 1 KB flushes
			if _, err := l.WaitDurable(p, end); err != ErrNotDurable {
				t.Errorf("in-flight batch durability wait returned %v, expected ErrNotDurable", err)
			}
		})
		s.Spawn("stopper", func(p *sim.Proc) {
			for l.FlushedLSN() == 0 {
				p.Sleep(10 * sim.Microsecond)
			}
			l.Stop() // first flush has landed, most of the batch has not
		})
		s.Run(sim.Time(10 * sim.Second))
		if !done {
			t.Fatal("reader never observed end of stream")
		}
		return visible, l.FlushedLSN(), l.AppendedLSN()
	}

	vis, flushed, appended := run()
	if flushed == 0 || flushed >= appended {
		t.Fatalf("stop did not land mid-batch: flushed %d of %d appended", flushed, appended)
	}
	if len(vis) == 0 || len(vis) >= 64 {
		t.Fatalf("visible prefix %d records, expected a strict non-empty prefix of 64", len(vis))
	}
	for i, lsn := range vis {
		if lsn != int64(i+1)*512 {
			t.Fatalf("visible record %d has LSN %d, expected %d", i, lsn, int64(i+1)*512)
		}
	}
	if last := vis[len(vis)-1]; last != flushed-flushed%512 {
		t.Fatalf("visible prefix ends at LSN %d with flushed %d", last, flushed)
	}

	vis2, flushed2, appended2 := run()
	if flushed2 != flushed || appended2 != appended || len(vis2) != len(vis) {
		t.Fatalf("stop-mid-batch not deterministic: (%d vis, %d/%d) vs (%d vis, %d/%d)",
			len(vis), flushed, appended, len(vis2), flushed2, appended2)
	}
	for i := range vis {
		if vis[i] != vis2[i] {
			t.Fatalf("visible LSN %d differs across identical runs: %d vs %d", i, vis[i], vis2[i])
		}
	}
}

// TestStreamBatchDoesNotAliasTheImage: a batch NextBatch returns ends at
// its length, so a consumer that appends to it reallocates instead of
// writing into the log image's spare capacity, where the log's next
// append would overwrite it.
func TestStreamBatchDoesNotAliasTheImage(t *testing.T) {
	s, l, _ := setup()
	l.Recording = true
	rd := l.NewStreamReader()
	sentinel := &Record{Type: RecCLR, Txn: -1}
	s.Spawn("t", func(p *sim.Proc) {
		var end int64
		for id := int64(1); id <= 3; id++ {
			end = l.AppendBatch([]*Record{{Type: RecUpdate, Txn: id, Bytes: 100}})
		}
		if recs := l.Records(); len(recs) == cap(recs) {
			t.Errorf("image has %d records at cap %d: no spare capacity to alias", len(recs), cap(recs))
		}
		if _, err := l.WaitDurable(p, end); err != nil {
			t.Error(err)
		}
		batch, _ := rd.NextBatch(p)
		if len(batch) != 3 {
			t.Errorf("first batch has %d records, want 3", len(batch))
		}
		image := append([]*Record(nil), l.Records()...)
		batch = append(batch, sentinel)

		end = l.AppendBatch([]*Record{{Type: RecUpdate, Txn: 4, Bytes: 100}})
		if _, err := l.WaitDurable(p, end); err != nil {
			t.Error(err)
		}
		if batch[len(batch)-1] != sentinel {
			t.Error("the log's append overwrote the record a consumer appended to its batch")
		}
		recs := l.Records()
		if len(recs) != 4 || recs[3].Txn != 4 {
			t.Fatalf("image has %d records after the fourth append", len(recs))
		}
		for i, r := range image {
			if recs[i] != r {
				t.Errorf("image record %d changed", i)
			}
		}
		l.Stop()
	})
	s.Run(sim.Time(sim.Second))
}
