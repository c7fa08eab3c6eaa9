package consensus_test

// The three lossy scenarios as functions of their seed. Tier-1 runs each at
// one fixed seed (TestRestartRejoinsUnderLossyFabric, TestPreGSTNever-
// ViolatesAgreement, TestSoakWithPartitionChurn); `make lossy-sweep` runs
// them over seed ranges and tabulates pass / wedged / diverged; a seed that
// diverges is kept, with the oracle's report, in knownholes_test.go.

import (
	"fmt"
	"math/rand"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// verdict is how one seeded run of a lossy scenario ended.
type verdict struct {
	// pass; wedged: a liveness expectation failed; diverged: the agreement
	// oracle's first conflict, or unequal states at equal progress (judge).
	kind string
	note string
}

var passed = verdict{kind: "pass"}

func (v verdict) String() string { return v.kind + ": " + v.note }
func (v verdict) ok() bool       { return v.kind == passed.kind }

func wedged(format string, args ...any) verdict {
	return verdict{"wedged", fmt.Sprintf(format, args...)}
}

// judge runs a scenario's body on u and classifies the run: diverged at the
// agreement oracle's first conflict, or when two live replicas that applied
// equally many slots end in different states; otherwise the body's verdict.
func judge(u *cluster.UBFT, body func() verdict) verdict {
	var v verdict
	if d := cluster.Diverged(func() { v = body() }); d != nil {
		return verdict{"diverged", d.Error()}
	}
	if err := u.CheckAgreement(); err != nil {
		return verdict{"diverged", err.Error()}
	}
	return v
}

// lossyRejoin restarts a crashed follower while the network is pre-GST:
// every message — JOIN probes, JOIN answers, snapshot requests and the
// snapshot itself — is dropped with probability 0.25 and delayed by up to
// 300us. The cold-rejoin path must make progress purely through its retry
// timers (probe re-arm, rotating snapshot pulls among the checkpoint's
// signers), and the loss-induced view changes mean the sync point moves
// under the joiner mid-pull. After GST everything must converge: rejoin
// complete, exactly one Rejoin counted, state identical.
func lossyRejoin(seed int64, logf func(string, ...any)) verdict {
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()
	return judge(u, func() verdict { return rejoinUnderLoss(u, logf) })
}

func rejoinUnderLoss(u *cluster.UBFT, logf func(string, ...any)) verdict {

	set := func(i int, wait sim.Duration) bool {
		key := []byte(fmt.Sprintf("k%03d", i))
		res, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), wait)
		return res != nil
	}
	for i := 0; i < 4; i++ {
		if !set(i, 100*sim.Millisecond) {
			return wedged("warmup op %d failed", i)
		}
	}

	const victim = 2
	if err := u.KillReplica(victim); err != nil {
		return wedged("%v", err)
	}
	// Past several windows: the victim's slots are pruned cluster-wide.
	for i := 4; i < 32; i++ {
		if !set(i, 200*sim.Millisecond) {
			return wedged("op %d failed with victim down", i)
		}
	}

	// Asynchronous period covering the whole rejoin: drops and delays start
	// the moment the victim is reborn.
	gst := u.Eng.Now().Add(sim.Duration(40 * sim.Millisecond))
	u.Net.SetGST(gst, 300*sim.Microsecond, 0.25)
	if err := u.RestartReplica(victim); err != nil {
		return wedged("%v", err)
	}
	// Best-effort traffic through the lossy window — the client has no
	// retransmission layer, so individual ops may time out; what matters is
	// that decisions keep flowing so checkpoints can advance past the
	// joiner's sync point.
	tried, completed := 0, 0
	for u.Eng.Now() < gst {
		tried++
		if set(100+tried, 5*sim.Millisecond) {
			completed++
		}
	}
	logf("lossy window: %d/%d ops completed, view now %d", completed, tried, u.Replicas[0].View())

	// Give the backed-off suspicion timers room to converge the views: after
	// a dozen failed view changes the exponential backoff (ViewChangeTimeout
	// << vcStreak, capped at 8) means the next catch-up jump can be hundreds
	// of milliseconds out. GST promises eventual liveness, not instant.
	u.Eng.RunFor(400 * sim.Millisecond)

	// Post-GST: ordered ops must succeed again, and the rejoin must finish.
	live := passed
	for i := 0; i < 8 && live.ok(); i++ {
		if !set(200+i, 200*sim.Millisecond) {
			live = wedged("post-GST op %d failed", i)
		}
	}
	u.Eng.RunFor(100 * sim.Millisecond)
	r := u.Replicas[victim]
	switch {
	case !live.ok():
		return live
	case u.Replicas[0].View() == 0:
		return wedged("loss never forced a view change: the sync point did not move under the joiner")
	case r.Recovering():
		return wedged("victim still recovering after GST and drain")
	case r.Rejoins != 1:
		return wedged("victim Rejoins = %d, want 1", r.Rejoins)
	case r.LastApplied() < u.Replicas[0].LastApplied()-8:
		return wedged("rejoined replica applied %d, peer %d (no catch-up?)", r.LastApplied(), u.Replicas[0].LastApplied())
	}
	return live
}

// preGSTAgreement is a long asynchronous period with aggressive drops:
// whatever decides, decides identically everywhere.
func preGSTAgreement(seed int64, _ func(string, ...any)) verdict {
	netOpts := simnet.RDMAOptions()
	netOpts.GST = sim.Time(20 * sim.Millisecond)
	netOpts.AsyncExtraMax = 5 * sim.Millisecond
	netOpts.AsyncDropProb = 0.5
	u := flipCluster(cluster.Options{
		Seed:              seed,
		Fabric:            simnet.AsFabric(simnet.New(sim.NewEngine(seed), netOpts)),
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     500 * sim.Microsecond,
		Window:            16,
		Tail:              8,
	})
	defer u.Stop()
	return judge(u, func() verdict {
		for i := 0; i < 10; i++ {
			u.Clients[0].Invoke([]byte(fmt.Sprintf("m%d", i)), func([]byte, sim.Duration) {})
			u.Eng.RunFor(2 * sim.Millisecond)
		}
		// Let the system stabilize well past GST.
		u.Eng.RunUntil(sim.Time(40 * sim.Millisecond))
		u.Eng.RunFor(200 * sim.Millisecond)
		return passed
	})
}

// partitionChurnSoak is a randomized fault-injection run: random link
// partitions open and heal while a client keeps submitting. Replicas must
// never diverge on executed state (agreement + total order), whatever the
// network does, and a third of the requests must complete.
func partitionChurnSoak(seed int64, logf func(string, ...any)) verdict {
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
		ViewChangeTimeout: sim.Millisecond,
		SlowPathDelay:     100 * sim.Microsecond,
		Window:            16,
		Tail:              8,
	})
	defer u.Stop()
	return judge(u, func() verdict { return churnPartitions(u, seed, logf) })
}

func churnPartitions(u *cluster.UBFT, seed int64, logf func(string, ...any)) verdict {
	rng := rand.New(rand.NewSource(seed))
	completed := 0
	for i := 0; i < 30; i++ {
		// Random partition events between replicas.
		if rng.Intn(3) == 0 {
			a := u.ReplicaIDs[rng.Intn(3)]
			b := u.ReplicaIDs[rng.Intn(3)]
			if a != b {
				u.Net.Partition(a, b)
			}
		}
		if rng.Intn(2) == 0 {
			u.Net.HealAll()
		}
		key := []byte(fmt.Sprintf("k%d", i))
		res, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), 100*sim.Millisecond)
		if res != nil {
			completed++
		}
		u.Net.HealAll()
	}
	u.Net.HealAll()
	u.Eng.RunFor(100 * sim.Millisecond)
	if completed < 10 {
		return wedged("only %d/30 requests completed under churn", completed)
	}
	logf("%d/30 requests completed under churn", completed)
	return passed
}
