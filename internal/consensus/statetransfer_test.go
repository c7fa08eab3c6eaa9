package consensus_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
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
	if u.Replicas[0].LastApplied() == u.Replicas[2].LastApplied() &&
		!bytes.Equal(u.Apps[0].Snapshot(), u.Apps[2].Snapshot()) {
		t.Fatal("state transfer produced divergent state")
	}
}

// TestRestartRejoinsUnderLossyFabric restarts a crashed follower while the
// network is pre-GST: every message — JOIN probes, JOIN answers, snapshot
// requests and the snapshot itself — is dropped with probability 0.25 and
// delayed by up to 300us. The cold-rejoin path must make progress purely
// through its retry timers (probe re-arm, rotating snapshot pulls among
// the checkpoint's signers), and the loss-induced view changes mean the
// sync point moves under the joiner mid-pull. After GST everything must
// converge: rejoin complete, exactly one Rejoin counted, state identical.
func TestRestartRejoinsUnderLossyFabric(t *testing.T) {
	u := flipCluster(cluster.Options{
		Seed:              5,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()

	set := func(i int, wait sim.Duration) bool {
		key := []byte(fmt.Sprintf("k%03d", i))
		res, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), wait)
		return res != nil
	}
	for i := 0; i < 4; i++ {
		if !set(i, 100*sim.Millisecond) {
			t.Fatalf("warmup op %d failed", i)
		}
	}

	const victim = 2
	if err := u.KillReplica(victim); err != nil {
		t.Fatal(err)
	}
	// Past several windows: the victim's slots are pruned cluster-wide.
	for i := 4; i < 32; i++ {
		if !set(i, 200*sim.Millisecond) {
			t.Fatalf("op %d failed with victim down", i)
		}
	}

	// Asynchronous period covering the whole rejoin: drops and delays start
	// the moment the victim is reborn.
	gst := u.Eng.Now().Add(sim.Duration(40 * sim.Millisecond))
	u.Net.SetGST(gst, 300*sim.Microsecond, 0.25)
	if err := u.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	// Best-effort traffic through the lossy window — the client has no
	// retransmission layer, so individual ops may time out; what matters is
	// that decisions keep flowing so checkpoints can advance past the
	// joiner's sync point.
	// completed during the async period, when nothing is guaranteed.
	tried, completed := 0, 0
	for u.Eng.Now() < gst {
		tried++
		if set(100+tried, 5*sim.Millisecond) {
			completed++
		}
	}
	t.Logf("lossy window: %d/%d ops completed, view now %d",
		completed, tried, u.Replicas[0].View())
	if u.Replicas[0].View() == 0 {
		t.Fatal("loss never forced a view change — the scenario is not " +
			"exercising a moving sync point (pick a harsher seed/drop rate)")
	}

	// Give the backed-off suspicion timers room to converge the views: after
	// a dozen failed view changes the exponential backoff (ViewChangeTimeout
	// << vcStreak, capped at 8) means the next catch-up jump can be hundreds
	// of milliseconds out. GST promises eventual liveness, not instant.
	u.Eng.RunFor(400 * sim.Millisecond)

	// Post-GST: ordered ops must succeed again, and the rejoin must finish.
	for i := 0; i < 8; i++ {
		if !set(200+i, 200*sim.Millisecond) {
			t.Fatalf("post-GST op %d failed", i)
		}
	}
	u.Eng.RunFor(100 * sim.Millisecond)

	r := u.Replicas[victim]
	if r.Recovering() {
		t.Fatal("victim still recovering after GST and drain")
	}
	if r.Rejoins != 1 {
		t.Fatalf("victim Rejoins = %d, want 1", r.Rejoins)
	}
	if got, want := r.LastApplied(), u.Replicas[0].LastApplied(); got < want-8 {
		t.Fatalf("rejoined replica applied %d, peer %d (no catch-up?)", got, want)
	}
	if u.Replicas[0].LastApplied() == r.LastApplied() &&
		!bytes.Equal(u.Apps[0].Snapshot(), u.Apps[victim].Snapshot()) {
		t.Fatal("lossy-fabric rejoin produced divergent state")
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
