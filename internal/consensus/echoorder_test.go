package consensus_test

// Regression tests for out-of-order echo completion (the wall-clock wedge):
// per-link FIFO normally makes the leader's echo round order-preserving per
// client, but a request whose echoes are lost completes via EchoTimeout and
// can reach the proposal queue AFTER its successors. The leader must still
// propose and execute it — clients do not retransmit, so a request dropped
// by per-client monotone-number bookkeeping wedges its client forever.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestLateEchoProposalNotDropped wedges request A's echo round (follower→
// leader echoes are cut while A arrives), lets request B from the same
// client complete its round normally, and requires A — proposed by its
// EchoTimeout after B — to still execute and answer.
func TestLateEchoProposalNotDropped(t *testing.T) {
	u := flipCluster(cluster.Options{})
	defer u.Stop()
	leader := u.ReplicaIDs[0]

	// A arrives everywhere, but the followers' echoes to the leader are
	// dropped: the leader holds A's copy with an incomplete echo set and
	// arms EchoTimeout.
	u.Net.Partition(u.ReplicaIDs[1], leader)
	u.Net.Partition(u.ReplicaIDs[2], leader)
	var aRes, bRes []byte
	u.Clients[0].Invoke([]byte("abcd"), func(res []byte, _ sim.Duration) { aRes = res })
	u.Eng.RunFor(20 * sim.Microsecond)
	u.Net.HealAll()

	// B's round completes normally, so B (num 2) proposes while A (num 1)
	// is still waiting out its timeout.
	u.Clients[0].Invoke([]byte("wxyz"), func(res []byte, _ sim.Duration) { bRes = res })
	u.Eng.RunFor(5 * sim.Millisecond)

	if string(bRes) != "zyxw" {
		t.Fatalf("request B result = %q, want zyxw", bRes)
	}
	if aRes == nil {
		t.Fatal("request A never completed: its EchoTimeout proposal was dropped as stale")
	}
	if string(aRes) != "dcba" {
		t.Fatalf("request A result = %q, want dcba", aRes)
	}
	if got := u.Replicas[0].LateProposals(); got != 1 {
		t.Errorf("leader counted %d late proposals, want 1", got)
	}
	for i, r := range u.Replicas {
		if r.Executed != 2 {
			t.Errorf("replica %d executed %d/2 requests", i, r.Executed)
		}
	}
}

// TestUnbackedEchoSetSurvivesOneCheckpoint pins the pruning grace: an echo
// set whose direct client copy has not arrived survives exactly one stable
// checkpoint (so echoes outrunning their copy do not force the request onto
// the EchoTimeout path) and is pruned at the next one (so a Byzantine
// client echo-spraying digests it never sends cannot grow leader memory).
func TestUnbackedEchoSetSurvivesOneCheckpoint(t *testing.T) {
	u := flipCluster(cluster.Options{Window: 16, Tail: 8, NumClients: 2})
	defer u.Stop()
	leader := u.ReplicaIDs[0]

	// Client 0's copy never reaches the leader; the followers' echoes do.
	u.Net.Partition(u.ClientIDs[0], leader)
	u.Clients[0].Invoke([]byte("lost"), func([]byte, sim.Duration) {})
	u.Eng.RunFor(sim.Millisecond)
	// The echo set is the only thing the leader holds about any request:
	// everything client 1 sends below is proposed, executed and pruned.
	if got := u.Replicas[0].Footprint().Requests; got != 1 {
		t.Fatalf("leader tracks %d echo sets before any checkpoint, want 1", got)
	}

	drive := func(n int) {
		for i := 0; i < n; i++ {
			if res, _, _ := u.InvokeSync(1, []byte("spin"), 10*sim.Millisecond); res == nil {
				t.Fatal("filler request timed out")
			}
		}
		// Checkpoint certification is asynchronous (background signatures
		// over the aux channel); let it reach stability and prune.
		u.Eng.RunFor(5 * sim.Millisecond)
	}
	drive(16) // first stable checkpoint: the unbacked set gets its grace
	if cp := u.Replicas[0].Checkpoint().Seq; cp < 16 {
		t.Fatalf("checkpoint did not advance (seq %d)", cp)
	}
	if got := u.Replicas[0].Footprint().Requests; got != 1 {
		t.Fatalf("unbacked echo set pruned at its first checkpoint (got %d sets)", got)
	}
	drive(16) // second stable checkpoint: grace expired, set is garbage
	if got := u.Replicas[0].Footprint().Requests; got != 0 {
		t.Fatalf("unbacked echo set leaked past its grace window (got %d sets)", got)
	}
}
