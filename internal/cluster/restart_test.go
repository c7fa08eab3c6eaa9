package cluster

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// driveOps pushes n sequential requests through client 0 and fails the
// test on any unsuccessful invoke.
func driveOps(t *testing.T, u *UBFT, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := u.InvokeSync(0, []byte{byte(i), 'x'}, 200*sim.Millisecond); err != nil {
			t.Fatalf("%s: op %d: %v", tag, i, err)
		}
	}
}

// TestRestartFollowerRejoins kills a follower, advances the cluster far
// past the checkpoint window (so the dead replica's slots are pruned
// everywhere and only a snapshot can catch it up), restarts it, and
// asserts it rejoins through the JOIN-probe/observe/resume path: the
// cluster keeps deciding throughout, and after drain the rejoined replica
// reports Rejoins=1, matches the others' decide count, and serves again.
func TestRestartFollowerRejoins(t *testing.T) {
	u := NewUBFT(Options{
		Seed:              7,
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()

	driveOps(t, u, 4, "warmup")

	const victim = 2 // a follower in view 0
	if err := u.KillReplica(victim); err != nil {
		t.Fatal(err)
	}
	// Far past the window: every slot the victim saw is pruned cluster-wide.
	driveOps(t, u, 3*8+4, "victim down")

	if err := u.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	driveOps(t, u, 3*8+4, "victim rejoining")

	// Drain: let the rejoin finish with no foreground load.
	u.Eng.RunFor(50 * sim.Millisecond)

	r := u.Replicas[victim]
	if r.Recovering() {
		t.Fatal("victim still in its rejoin window after drain")
	}
	if r.Rejoins != 1 {
		t.Fatalf("victim Rejoins = %d, want 1", r.Rejoins)
	}
	want := u.Replicas[0].DecidedCount()
	if got := r.DecidedCount(); got < want {
		t.Fatalf("victim decided %d < peer %d after rejoin", got, want)
	}
	driveOps(t, u, 4, "after rejoin")
}

// TestRestartLeaderRejoins kills the view-0 leader mid-stream. Liveness
// now depends on the followers' view change, and the rejoined ex-leader
// must not re-propose in a view it may already have proposed in (the
// noLeadView guard) — the run proves decisions keep flowing anyway.
func TestRestartLeaderRejoins(t *testing.T) {
	u := NewUBFT(Options{
		Seed:              11,
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()

	driveOps(t, u, 4, "warmup")

	const victim = 0 // leader of view 0
	if err := u.KillReplica(victim); err != nil {
		t.Fatal(err)
	}
	driveOps(t, u, 3*8+4, "leader down")

	if err := u.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	driveOps(t, u, 3*8+4, "leader rejoining")
	u.Eng.RunFor(50 * sim.Millisecond)

	r := u.Replicas[victim]
	if r.Recovering() || r.Rejoins != 1 {
		t.Fatalf("ex-leader did not complete rejoin: recovering=%v rejoins=%d",
			r.Recovering(), r.Rejoins)
	}
	driveOps(t, u, 4, "after rejoin")
}

// TestRepeatedRestartCycles kills and revives the same follower many
// times; every incarnation must complete a rejoin (monotone nonce, full
// channel resets at peers each round) and the cluster must never stall.
func TestRepeatedRestartCycles(t *testing.T) {
	u := NewUBFT(Options{
		Seed:              3,
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()

	const victim = 1
	for cycle := 1; cycle <= 4; cycle++ {
		driveOps(t, u, 4, "steady")
		if err := u.KillReplica(victim); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		driveOps(t, u, 2*8+4, "down")
		if err := u.RestartReplica(victim); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		driveOps(t, u, 2*8+4, "rejoining")
		u.Eng.RunFor(50 * sim.Millisecond)
		r := u.Replicas[victim]
		if r.Recovering() || r.Rejoins != 1 {
			t.Fatalf("cycle %d: rejoin incomplete (recovering=%v rejoins=%d)",
				cycle, r.Recovering(), r.Rejoins)
		}
	}
}

// TestJoinNonceStartsColdJoin: the join nonce is the cold-join switch. A
// replica wired with nonce 0 boots warm and sends no JOIN probe; one wired
// with nonce n boots in the rejoin window and probes every peer with n.
func TestJoinNonceStartsColdJoin(t *testing.T) {
	u := NewUBFT(Options{
		Seed:              7,
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()
	probes := map[ids.ID][]uint64{}
	u.Net.SetRule(func(from, _ ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		if ch, p := router.Split(frame); ch == router.ChanDirect && len(p) == 9 && p[0] == wire.TagJoinProbe {
			probes[from] = append(probes[from], binary.LittleEndian.Uint64(p[1:]))
		}
		return simnet.Deliver, 0
	})
	driveOps(t, u, 4, "warm")
	if len(probes) != 0 || slices.ContainsFunc(u.Replicas, (*consensus.Replica).Recovering) {
		t.Fatalf("replicas wired with nonce 0 sent JOIN probes %v", probes)
	}

	const victim, nonce = 2, 42
	if err := u.KillReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := u.asm.wireReplica(0, victim, nonce); err != nil {
		t.Fatal(err)
	}
	u.Eng.RunFor(100 * sim.Microsecond)
	got := probes[u.ReplicaIDs[victim]]
	if len(probes) != 1 || len(got) < len(u.ReplicaIDs)-1 || slices.ContainsFunc(got, func(n uint64) bool { return n != nonce }) {
		t.Fatalf("probes after wiring replica %d with nonce %d: %v", victim, nonce, probes)
	}
	if !u.Replicas[victim].Recovering() {
		t.Fatal("a replica wired with a non-zero nonce is not in its rejoin window")
	}
}
