package harness

import (
	"reflect"
	"testing"

	"repro/internal/repl"
)

// TestReplicationSweepVerifies runs a small replication sweep and
// requires every cell to quiesce with primary/standby digest equality.
func TestReplicationSweepVerifies(t *testing.T) {
	opt := TestOptions()
	r := Replication(1, opt, []repl.Mode{repl.ModeAsync, repl.ModeSync}, []float64{200}, []int{1})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.TPS <= 0 || p.AppliedTxns == 0 || p.ShippedMB == 0 {
			t.Fatalf("dead cell: %+v", p)
		}
	}
	var syncAck, asyncAck float64
	for _, p := range r.Points {
		switch p.Mode {
		case repl.ModeSync:
			syncAck = p.CommitAckMs
		case repl.ModeAsync:
			asyncAck = p.CommitAckMs
		}
	}
	if asyncAck != 0 {
		t.Fatalf("async commits waited %.3fms for acks", asyncAck)
	}
	if syncAck <= 0 {
		t.Fatal("sync commits recorded no ack wait")
	}
}

// TestReplicationSweepDeterministicAcrossParallel checks that the sweep
// is bit-identical serial vs parallel — each cell boots an isolated sim.
func TestReplicationSweepDeterministicAcrossParallel(t *testing.T) {
	modes := []repl.Mode{repl.ModeAsync, repl.ModeQuorum, repl.ModeSync}
	opt := TestOptions()
	opt.Parallel = 1
	serial := Replication(1, opt, modes, []float64{200}, []int{1})
	opt.Parallel = 4
	parallel := Replication(1, opt, modes, []float64{200}, []int{1})
	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(parallel.Points))
	}
	for i := range serial.Points {
		if !reflect.DeepEqual(serial.Points[i], parallel.Points[i]) {
			t.Fatalf("point %d differs:\nserial:   %+v\nparallel: %+v",
				i, serial.Points[i], parallel.Points[i])
		}
	}
}

// TestFailoverSweepInvariants runs the failover sweep (crash, promote,
// verify, PITR) per commit mode and checks the robustness invariants.
func TestFailoverSweepInvariants(t *testing.T) {
	opt := TestOptions()
	r := Failover(1, opt, []repl.Mode{repl.ModeAsync, repl.ModeQuorum})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Failover.RTO <= 0 {
			t.Fatalf("mode %s: zero RTO", c.Mode)
		}
		if c.Failover.LostAckedCommits != 0 {
			t.Fatalf("mode %s: %d acked commits lost", c.Mode, c.Failover.LostAckedCommits)
		}
		if c.PITR.LandedLSN == 0 || c.PITR.LandedLSN != c.PITR.TargetLSN {
			t.Fatalf("mode %s: PITR landed at %d, target %d", c.Mode, c.PITR.LandedLSN, c.PITR.TargetLSN)
		}
		if c.Mode == repl.ModeQuorum && c.Failover.AckedCommits == 0 {
			t.Fatalf("mode %s: no commits acked before the crash", c.Mode)
		}
	}
}
