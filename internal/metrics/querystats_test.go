package metrics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// fillCounters sets every int64 field (and every WaitNs element) to a
// distinct value of the form base+k via reflection, so tests over the
// full field set keep covering fields added later.
func fillCounters(t *testing.T, base int64) Counters {
	t.Helper()
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	n := base
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			n++
			f.SetInt(n)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				n++
				f.Index(j).SetInt(n)
			}
		default:
			t.Fatalf("Counters field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return c
}

// TestCountersSubAndAddCoverEveryField guards the hand-written field lists
// of Sub and of its in-place dual Add: a and b differ by exactly delta in
// every field and every WaitNs slot, so a field Sub forgets shows up as a
// zero in the difference, and one Add forgets as b + (a-b) != a.
func TestCountersSubAndAddCoverEveryField(t *testing.T) {
	const delta = 1000
	a := fillCounters(t, delta)
	b := fillCounters(t, 0)
	check := func(name string, got Counters, want int64) {
		v := reflect.ValueOf(got)
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			fname := v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Int64:
				if f.Int() != want {
					t.Errorf("%s misses field %s: got %d, want %d", name, fname, f.Int(), want)
				}
			case reflect.Array:
				for j := 0; j < f.Len(); j++ {
					if f.Index(j).Int() != want {
						t.Errorf("%s misses %s[%d]: got %d, want %d", name, fname, j, f.Index(j).Int(), want)
					}
				}
			}
		}
	}
	d := a.Sub(b)
	check("Sub", d, delta)
	// With d == delta everywhere, b + d is a exactly when Add folds every
	// field and every WaitNs slot.
	sum := b
	sum.Add(&d)
	if sum != a {
		t.Errorf("Add dropped a field: got %+v, want %+v", sum, a)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should return zeros")
	}

	h.Observe(0)
	h.Observe(-5 * sim.Nanosecond) // clamps to 0
	h.Observe(1)                   // [1,2) -> bucket 1
	h.Observe(1000)                // [512,1024) -> bucket 10
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[10] != 1 {
		t.Fatalf("bucket placement wrong: %v", h.Counts[:12])
	}
	if h.N != 4 || h.SumNs != 1001 || h.MaxNs != 1000 {
		t.Fatalf("N=%d SumNs=%d MaxNs=%d", h.N, h.SumNs, h.MaxNs)
	}

	// Interpolated quantiles stay inside the containing bucket and are
	// clamped to the observed maximum.
	var one Histogram
	one.Observe(700)
	if q := one.Quantile(1); q != 700 {
		t.Fatalf("p100 = %f, want max 700", q)
	}
	if q := one.Quantile(0.5); q < 512 || q > 700 {
		t.Fatalf("p50 = %f, want within [512, 700]", q)
	}
	prev := -1.0
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.9, 0.99, 1, 2} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%f: %f < %f", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 4; i++ {
		a.Observe(1000)
	}
	for i := 0; i < 6; i++ {
		b.Observe(1e6)
	}
	a.Merge(b)
	if a.N != 10 || a.SumNs != 4*1000+6*1e6 || a.MaxNs != 1e6 {
		t.Fatalf("merged N=%d SumNs=%d MaxNs=%d", a.N, a.SumNs, a.MaxNs)
	}
	if got := a.Mean(); math.Abs(got-600400) > 1 {
		t.Fatalf("merged mean = %f", got)
	}
	if q := a.Quantile(0.99); q < 5e5 || q > 1e6 {
		t.Fatalf("merged p99 = %f, want in the slow mode", q)
	}
	if q := a.Quantile(0.2); q > 1024 {
		t.Fatalf("merged p20 = %f, want in the fast mode", q)
	}
}

func TestQueryStatsRecordAndSnapshot(t *testing.T) {
	qs := NewQueryStats()
	stmt := &Counters{Spills: 2, BufferHits: 10}
	stmt.WaitNs[WaitLock] = 500

	qs.Record("b.Q2", Exec{Elapsed: 2 * sim.Millisecond, Rows: 7, Stmt: stmt})
	qs.Record("a.Q1", Exec{Elapsed: sim.Millisecond, Rows: 3, Failed: true, Killed: true, Degraded: true})
	qs.Record("b.Q2", Exec{Elapsed: 4 * sim.Millisecond, Rows: 1, Stmt: stmt})
	qs.AddRetry("b.Q2")
	qs.Record("", Exec{}) // empty labels are dropped, not stored

	rows := qs.Snapshot()
	if len(rows) != 2 || rows[0].Query != "a.Q1" || rows[1].Query != "b.Q2" {
		t.Fatalf("snapshot order wrong: %+v", rows)
	}
	a, b := rows[0], rows[1]
	if a.Executions != 1 || a.Errors != 1 || a.Kills != 1 || a.Degraded != 1 || a.Rows != 3 {
		t.Fatalf("a.Q1 row = %+v", a)
	}
	if b.Executions != 2 || b.Rows != 8 || b.Retries != 1 {
		t.Fatalf("b.Q2 row = %+v", b)
	}
	if b.Spills != 4 || b.WaitNs[WaitLock] != 1000 || b.Counters.BufferHits != 20 {
		t.Fatalf("b.Q2 attribution = spills %d, lockwait %d, bufhits %d",
			b.Spills, b.WaitNs[WaitLock], b.Counters.BufferHits)
	}
	if b.TotalNs != int64(6*sim.Millisecond) || b.MaxNs != int64(4*sim.Millisecond) || b.Hist.N != 2 {
		t.Fatalf("b.Q2 timing = %+v", b)
	}

	// Snapshot is a copy: mutating it must not leak back into the store.
	rows[1].Executions = 999
	if qs.Snapshot()[1].Executions != 2 {
		t.Fatal("snapshot aliases store state")
	}

	// nil store is inert everywhere the engine calls it.
	var nilQS *QueryStats
	nilQS.Record("x", Exec{})
	nilQS.AddRetry("x")
	if nilQS.Snapshot() != nil {
		t.Fatal("nil snapshot should be nil")
	}
}
