package cluster

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestQuiescentAfterFaultFreeRun: a healthy cluster that has stopped
// receiving requests goes quiet, and the check says so.
func TestQuiescentAfterFaultFreeRun(t *testing.T) {
	u := NewUBFT(Options{Seed: 3})
	defer u.Stop()
	driveOps(t, u, 300, "load") // past a checkpoint window
	if err := u.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestQuiescentAllowsOnlyProbesTowardsADeadReplica: with a replica killed the
// survivors owe it the tail of every channel for ever. That debt is paid in
// probes, one per channel per capped interval, which the check allows; the
// same traffic towards a replica that is alive fails it.
func TestQuiescentAllowsOnlyProbesTowardsADeadReplica(t *testing.T) {
	u := NewUBFT(Options{Seed: 3, SlowPathDelay: 30 * sim.Microsecond})
	defer u.Stop()
	driveOps(t, u, 8, "warmup")
	if err := u.KillReplica(2); err != nil {
		t.Fatal(err)
	}
	driveOps(t, u, 40, "victim down")
	sent := u.Net.MsgsSent
	if err := u.Quiescent(); err != nil {
		t.Fatal(err)
	}
	if u.Net.MsgsSent == sent {
		t.Fatal("nothing was sent towards the dead replica: the probe allowance went untested")
	}
}

// TestQuiescentTripsOnATimerThatNeverStops: one message every few
// milliseconds towards a live node, for ever, is what a retransmission loop
// or a rotating view change looks like from the fabric; the check must fail.
func TestQuiescentTripsOnATimerThatNeverStops(t *testing.T) {
	u := NewUBFT(Options{Seed: 3})
	defer u.Stop()
	driveOps(t, u, 8, "warmup")
	var tick func()
	tick = func() {
		u.Net.Node(u.ClientIDs[0]).Send(u.ReplicaIDs[1], []byte{0xff})
		u.Eng.After(5*sim.Millisecond, tick)
	}
	tick()
	if err := u.Quiescent(); err == nil || !strings.Contains(err.Error(), "towards live nodes") {
		t.Fatalf("a timer that sends for ever passed the quiescence check: %v", err)
	}
}
