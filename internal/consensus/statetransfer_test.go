package consensus_test

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/outcome"
	"repro/internal/sim"
)

// TestLaggingReplicaCatchesUpViaStateTransfer partitions a follower for
// longer than a full checkpoint window, so when it reconnects the decided
// slots it missed are already garbage-collected everywhere — the only way
// back is the state-transfer extension: fetch the f+1-certified snapshot
// and resume from the checkpoint.
func TestLaggingReplicaCatchesUpViaStateTransfer(t *testing.T) {
	u := flipCluster(cluster.Options{
		Seed:          2,
		NewApp:        func() app.StateMachine { return app.NewKV(0) },
		Window:        8,
		Tail:          8,
		SlowPathDelay: 100 * sim.Microsecond,
	})
	defer u.Stop()

	// Cut replica 2 off from its peers (client stays connected so request
	// traffic does not stall on it).
	u.Net.Partition(u.ReplicaIDs[2], u.ReplicaIDs[0])
	u.Net.Partition(u.ReplicaIDs[2], u.ReplicaIDs[1])

	// Drive well past several checkpoint windows (window=8, 30 requests).
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		res, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 100*sim.Millisecond)
		if res == nil {
			t.Fatalf("request %d stalled with one partitioned follower", i)
		}
	}
	if got := u.Replicas[2].LastApplied(); got != 0 {
		t.Fatalf("partitioned replica applied %d slots", got)
	}

	// Heal and give retransmission, summaries, checkpoints and state
	// transfer time to work.
	u.Net.HealAll()
	u.Eng.RunFor(200 * sim.Millisecond)
	// Fresh traffic accelerates dissemination of the latest checkpoint.
	for i := 30; i < 34; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 100*sim.Millisecond)
	}
	u.Eng.RunFor(200 * sim.Millisecond)

	lag := u.Replicas[2].LastApplied()
	if lag < 24 {
		t.Fatalf("lagging replica only reached slot %d (no state transfer?)", lag)
	}
	// Its state must equal another replica's at the same progress point —
	// and since KV state is cumulative, spot-check the early keys arrived
	// via snapshot even though their slots were pruned.
	kv := app.NewKV(0)
	kv.Restore(u.Apps[2].Snapshot())
	if kv.Len() < 24 {
		t.Fatalf("restored replica has %d keys, want >=24", kv.Len())
	}
	if err := u.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRejoinsUnderLossyFabric: the lossyRejoin scenario (lossy_test.go)
// at its tier-1 seed.
func TestRestartRejoinsUnderLossyFabric(t *testing.T) {
	if v := lossyRejoin(5, t.Logf); v.Kind != outcome.Pass {
		t.Fatal(v)
	}
}

// TestLaggingReplicaPullsPastAnUnreachableSigner: a follower that fell a
// full window behind learns the stable checkpoint from one peer while its
// link to the other — the certificate's lowest-ID signer, the first one it
// asks for the snapshot — stays cut, on a cluster that has gone quiet. No
// later checkpoint will come to prompt another request, so the pull itself
// must retry and move on to the next signer.
func TestLaggingReplicaPullsPastAnUnreachableSigner(t *testing.T) {
	u := flipCluster(cluster.Options{
		Seed:          2,
		NewApp:        func() app.StateMachine { return app.NewKV(0) },
		Window:        8,
		Tail:          8,
		SlowPathDelay: 100 * sim.Microsecond,
	})
	defer u.Stop()
	u.Net.Partition(u.ReplicaIDs[2], u.ReplicaIDs[0])
	u.Net.Partition(u.ReplicaIDs[2], u.ReplicaIDs[1])
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		if res, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 100*sim.Millisecond); res == nil {
			t.Fatalf("request %d stalled with one partitioned follower", i)
		}
	}
	u.Eng.RunFor(10 * sim.Millisecond) // let the last checkpoint settle; the load has stopped

	u.Net.Heal(u.ReplicaIDs[2], u.ReplicaIDs[1])
	lag := u.Replicas[2]
	stable := u.Replicas[1].Checkpoint()
	if _, signed := stable.Sigs[u.ReplicaIDs[0]]; !signed || stable.Seq < 24 {
		t.Fatalf("scenario broken: stable checkpoint %d signed by %v", stable.Seq, stable.Sigs)
	}
	// Time to learn the checkpoint over the one healed link (retransmission,
	// summaries), then a handful of pull retries (2ms each).
	for i := 0; i < 100 && lag.Checkpoint().Seq < stable.Seq; i++ {
		u.Eng.RunFor(sim.Millisecond)
	}
	if lag.Checkpoint().Seq != stable.Seq {
		t.Fatalf("lagging replica never learned checkpoint %d (has %d)", stable.Seq, lag.Checkpoint().Seq)
	}
	u.Eng.RunFor(10 * sim.Millisecond)
	if got := lag.LastApplied(); got != stable.Seq {
		t.Fatalf("lagging replica applied %d, stable checkpoint is %d: the snapshot pull stopped at the unreachable signer", got, stable.Seq)
	}
	// One SET per slot, every key new: the snapshot holds what the 24 slots
	// under the checkpoint wrote, although none of them was ever delivered
	// to this replica.
	kv := app.NewKV(0)
	kv.Restore(u.Apps[2].Snapshot())
	if kv.Len() != int(stable.Seq) {
		t.Fatalf("restored replica has %d keys, want %d", kv.Len(), stable.Seq)
	}
}
