package metrics

import (
	"reflect"
	"testing"
)

func TestDistributionPercentiles(t *testing.T) {
	d := NewDistribution([]float64{5, 1, 3, 2, 4})
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Fatalf("p100 = %f", got)
	}
	if got := d.Percentile(50); got != 3 {
		t.Fatalf("p50 = %f", got)
	}
	if got := d.Mean(); got != 3 {
		t.Fatalf("mean = %f", got)
	}
	cdf := d.CDF()
	if len(cdf) != 5 || cdf[4][1] != 1.0 {
		t.Fatalf("cdf = %v", cdf)
	}
	empty := NewDistribution(nil)
	if empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Fatal("empty distribution should return zeros")
	}
}

func TestCountersSubAndWaits(t *testing.T) {
	a := Counters{Instructions: 100, TxnCommits: 5}
	a.AddWait(WaitLock, 20)
	a.AddWait(WaitLock, -3) // ignored
	b := Counters{Instructions: 40, TxnCommits: 2}
	d := a.Sub(b)
	if d.Instructions != 60 || d.TxnCommits != 3 || d.WaitNs[WaitLock] != 20 {
		t.Fatalf("delta = %+v", d)
	}
	if WaitPageIOLatch.String() != "PAGEIOLATCH" || WaitLock.String() != "LOCK" {
		t.Fatal("wait class names wrong")
	}
}

// TestSubAndAddCoverEveryCounter fails the day a counter joins the struct
// and not both hand-written field lists: with every field (each wait slot
// included) set to a distinct value, subtracting zero and adding into zero
// must both reproduce the whole struct.
func TestSubAndAddCoverEveryCounter(t *testing.T) {
	var a Counters
	v := reflect.ValueOf(&a).Elem()
	next := int64(0)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			next++
			f.SetInt(next)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				next++
				f.Index(j).SetInt(next)
			}
		default:
			t.Fatalf("Counters.%s is a %s: teach this test (and Sub, Add) about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	if got := a.Sub(Counters{}); got != a {
		t.Errorf("Sub drops a field:\n got %+v\nwant %+v", got, a)
	}
	var sum Counters
	sum.Add(&a)
	if sum != a {
		t.Errorf("Add drops a field:\n got %+v\nwant %+v", sum, a)
	}
}
