package metrics

import "testing"

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
