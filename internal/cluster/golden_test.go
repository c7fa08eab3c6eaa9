package cluster_test

// Refactor safety net for the deployment assembler: per-seed digests of
// everything a run can observe (virtual latencies, final application
// snapshots, decided counts), captured at the commit BEFORE Build,
// NewMember and shard.Build were folded into one assembly core. Endpoint
// creation order, the registry seed or an extra NewApp() call moving would
// change these values.
//
// Both digests fold every op's virtual latency in, so they were captured
// again at PR 21 (lazy cumulative acks: a replica no longer spends 150ns a
// side acknowledging every ring frame, which shortens every op). With the
// latency left out of the fold the Build digest is the parent's
// (08b3843efed1ce82): results and final replica states did not move. The
// restart digest moves without it too (03a11f136b7f16e4 -> d1c954562295735b):
// towards the killed replica retransmission now backs off and probes, so the
// rejoin traffic, and with it the decided counts at the end, differ.
//
// The restart digest was captured a third time at PR 22 (certificate timing:
// a replica takes its own checkpoint share unverified and counts the
// signatures of a peer's CHECKPOINT it already verified as shares, so each
// 8-slot window opens earlier). It moves with the latency left out too
// (d1c954562295735b -> 5241f9a365d8a159): the joiner is back after 36 ops
// where it took 34. The Build digest did not move: 200 ops never reach the
// default window's first checkpoint at slot 256.
//
// Both were captured again for certificate timing: a broadcaster takes its
// own CTBcast summary share as signed and has the crypto pool verify only the
// shares the certificate still lacks (one, where it verified all three), and
// a peer's CHECKPOINT waits for the pool instead of being verified on the
// main process. Build 6c574ce881028ece -> 7c1c80bd0cb51507: with the latency
// left out it is still 08b3843efed1ce82, so only latencies moved (every
// summary certificate forms sooner). Restart 80d588f0be22cb40 ->
// ded7032fdaf00254: it moves with the latency left out too (5241f9a365d8a159
// -> 8fdb39471130a641), the joiner being back after 38 ops where it took 36.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// goldenDigest folds a run's observable outcome into one hex digest.
func goldenDigest(lats []sim.Duration, apps []app.StateMachine, reps []*consensus.Replica) string {
	var buf []byte
	for _, l := range lats {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(l))
	}
	for i, a := range apps {
		snap := a.Snapshot()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snap)))
		buf = append(buf, snap...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(reps[i].DecidedCount()))
		buf = binary.LittleEndian.AppendUint64(buf, reps[i].Rejoins)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

func goldenOp(i int) []byte { return []byte{byte(i), byte(i >> 8), 'g'} }

// TestGoldenBuildSeed7 pins cluster.Build's default Flip deployment: the
// first 200 ops of seed 7.
func TestGoldenBuildSeed7(t *testing.T) {
	u, err := cluster.Build(cluster.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	var lats []sim.Duration
	for i := 0; i < 200; i++ {
		_, lat, err := u.InvokeSync(0, goldenOp(i), 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		lats = append(lats, lat)
	}
	const want = "7c1c80bd0cb51507"
	if got := goldenDigest(lats, u.Apps, u.Replicas); got != want {
		t.Fatalf("seed-7 Build digest = %s, want %s (see the top of the file)", got, want)
	}
}

// TestGoldenRestartSeed7 pins one KillReplica -> RestartReplica cycle: the
// cold-joining replica must be wired exactly as before (fresh endpoint,
// fresh app, nonce 1) for the rejoin to replay bit for bit.
func TestGoldenRestartSeed7(t *testing.T) {
	u, err := cluster.Build(cluster.Options{
		Seed:              7,
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	var lats []sim.Duration
	n := 0
	drive := func(ops int) {
		for i := 0; i < ops; i++ {
			_, lat, err := u.InvokeSync(0, goldenOp(n), 200*sim.Millisecond)
			if err != nil {
				t.Fatalf("op %d: %v", n, err)
			}
			lats = append(lats, lat)
			n++
		}
	}
	const victim = 2
	drive(4)
	if err := u.KillReplica(victim); err != nil {
		t.Fatal(err)
	}
	drive(28)
	if err := u.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	for u.Replicas[victim].Recovering() && n < 400 {
		drive(1)
	}
	if r := u.Replicas[victim]; r.Recovering() || r.Rejoins != 1 {
		t.Fatalf("rejoin incomplete after %d ops: recovering=%v rejoins=%d", n, r.Recovering(), r.Rejoins)
	}
	const want = "ded7032fdaf00254"
	if got := goldenDigest(lats, u.Apps, u.Replicas); got != want {
		t.Fatalf("seed-7 restart digest = %s, want %s (see the top of the file)", got, want)
	}
}

// TestMembersEqualBuild assembles the default deployment node by node —
// one NewMember call per memory node, replica and client, all on one
// shared simulated fabric, in Build's wiring order — and requires the same
// identities, the same per-memory-node allocation and the same first-50-op
// virtual latencies as cluster.Build with that seed: ubft-node's
// per-process path and the simulator's whole-cluster path are the same
// wiring.
func TestMembersEqualBuild(t *testing.T) {
	const seed = 7
	u, err := cluster.Build(cluster.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Stop()

	eng := sim.NewEngine(seed)
	fab := simnet.AsFabric(simnet.New(eng, simnet.RDMAOptions()))
	member := func(role cluster.Role, i int) *cluster.Member {
		m, err := cluster.NewMember(cluster.Options{Seed: seed}, fab, cluster.MemberSpec{Role: role, Index: i})
		if err != nil {
			t.Fatalf("NewMember(%s %d): %v", role, i, err)
		}
		t.Cleanup(m.Stop)
		return m
	}
	for j, want := range u.MemNodes {
		m := member(cluster.RoleMemNode, j)
		if m.ID != u.MemNodeIDs[j] || m.MemNode.AllocatedBytes != want.AllocatedBytes {
			t.Fatalf("memnode %d: id %v / %d bytes, Build has %v / %d", j, m.ID, m.MemNode.AllocatedBytes, u.MemNodeIDs[j], want.AllocatedBytes)
		}
	}
	for i := range u.Replicas {
		if m := member(cluster.RoleReplica, i); m.ID != u.ReplicaIDs[i] {
			t.Fatalf("replica %d: id %v, Build has %v", i, m.ID, u.ReplicaIDs[i])
		}
	}
	cl := member(cluster.RoleClient, 0)
	if cl.ID != u.ClientIDs[0] {
		t.Fatalf("client id %v, Build has %v", cl.ID, u.ClientIDs[0])
	}

	for i := 0; i < 50; i++ {
		_, want, err := u.InvokeSync(0, goldenOp(i), 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("Build op %d: %v", i, err)
		}
		var got sim.Duration
		fired := false
		cl.Client.Invoke(goldenOp(i), func(_ []byte, l sim.Duration) { got, fired = l, true })
		if err := cluster.SyncWait(eng, 50*sim.Millisecond, func() bool { return fired }); err != nil {
			t.Fatalf("member op %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("op %d: member-assembled latency %v, Build latency %v", i, got, want)
		}
	}
}
