package consensus_test

// The three lossy scenarios as functions of their seed, each judged by
// outcome.Judge. Tier-1 runs each at fixed seeds (TestRestartRejoinsUnder-
// LossyFabric, TestPreGSTNeverViolatesAgreement, TestSoakWithPartitionChurn);
// `make lossy-sweep` runs them over seed ranges against the [consensus]
// section of the outcome ledger, where every seed that wedges or diverges
// is a committed line.

import (
	"fmt"
	"math/rand"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/outcome"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// lossyRejoin restarts a crashed follower while the network is pre-GST:
// every message — JOIN probes, JOIN answers, snapshot requests and the
// snapshot itself — is dropped with probability 0.25 and delayed by up to
// 300us. The cold-rejoin path must make progress purely through its retry
// timers (probe re-arm, rotating snapshot pulls among the checkpoint's
// signers), and the loss-induced view changes mean the sync point moves
// under the joiner mid-pull. After GST everything must converge: rejoin
// complete, exactly one Rejoin counted, state identical.
func lossyRejoin(seed int64, logf func(string, ...any)) outcome.Verdict {
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	defer u.Stop()
	return outcome.Judge(u, func() outcome.Verdict { return rejoinUnderLoss(u, logf) })
}

func rejoinUnderLoss(u *cluster.UBFT, logf func(string, ...any)) outcome.Verdict {

	set := func(i int, wait sim.Duration) bool {
		key := []byte(fmt.Sprintf("k%03d", i))
		res, _ := u.InvokeSync(0, app.EncodeKVSet(key, []byte("v")), wait)
		return res != nil
	}
	for i := 0; i < 4; i++ {
		if !set(i, 100*sim.Millisecond) {
			return outcome.Wedged.Because("warmup op %d failed", i)
		}
	}

	const victim = 2
	if err := u.KillReplica(victim); err != nil {
		return outcome.Wedged.Because("%v", err)
	}
	// Past several windows: the victim's slots are pruned cluster-wide.
	for i := 4; i < 32; i++ {
		if !set(i, 200*sim.Millisecond) {
			return outcome.Wedged.Because("op %d failed with victim down", i)
		}
	}

	// Asynchronous period covering the whole rejoin: drops and delays start
	// the moment the victim is reborn.
	gst := u.Eng.Now().Add(sim.Duration(40 * sim.Millisecond))
	u.Net.SetGST(gst, 300*sim.Microsecond, 0.25)
	if err := u.RestartReplica(victim); err != nil {
		return outcome.Wedged.Because("%v", err)
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
	var live outcome.Verdict
	for i := 0; i < 8 && live.Kind == outcome.Pass; i++ {
		if !set(200+i, 200*sim.Millisecond) {
			live = outcome.Wedged.Because("post-GST op %d failed", i)
		}
	}
	u.Eng.RunFor(100 * sim.Millisecond)
	r := u.Replicas[victim]
	switch {
	case live.Kind != outcome.Pass:
		return live
	case u.Replicas[0].View() == 0:
		return outcome.Wedged.Because("loss never forced a view change: the sync point did not move under the joiner")
	case r.Recovering():
		return outcome.Wedged.Because("victim still recovering after GST and drain")
	case r.Rejoins != 1:
		return outcome.Wedged.Because("victim Rejoins = %d, want 1", r.Rejoins)
	case r.LastApplied() < u.Replicas[0].LastApplied()-8:
		return outcome.Wedged.Because("rejoined replica applied %d, peer %d (no catch-up?)", r.LastApplied(), u.Replicas[0].LastApplied())
	}
	return live
}

// preGSTAgreement is a long asynchronous period with aggressive drops:
// whatever decides, decides identically everywhere.
func preGSTAgreement(seed int64, _ func(string, ...any)) outcome.Verdict {
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
	return outcome.Judge(u, func() outcome.Verdict {
		for i := 0; i < 10; i++ {
			u.Clients[0].Invoke([]byte(fmt.Sprintf("m%d", i)), func([]byte, sim.Duration) {})
			u.Eng.RunFor(2 * sim.Millisecond)
		}
		// Let the system stabilize well past GST.
		u.Eng.RunUntil(sim.Time(40 * sim.Millisecond))
		u.Eng.RunFor(200 * sim.Millisecond)
		return outcome.Verdict{}
	})
}

// partitionChurnSoak is a randomized fault-injection run: random link
// partitions open and heal while a client keeps submitting. Replicas must
// never diverge on executed state (agreement + total order), whatever the
// network does, and a third of the requests must complete.
func partitionChurnSoak(seed int64, logf func(string, ...any)) outcome.Verdict {
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return app.NewKV(0) },
		ViewChangeTimeout: sim.Millisecond,
		SlowPathDelay:     100 * sim.Microsecond,
		Window:            16,
		Tail:              8,
	})
	defer u.Stop()
	return outcome.Judge(u, func() outcome.Verdict { return churnPartitions(u, seed, logf) })
}

func churnPartitions(u *cluster.UBFT, seed int64, logf func(string, ...any)) outcome.Verdict {
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
		return outcome.Wedged.Because("only %d/30 requests completed under churn", completed)
	}
	logf("%d/30 requests completed under churn", completed)
	return outcome.Verdict{}
}
