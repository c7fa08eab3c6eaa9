package scenario

import (
	"repro/internal/cluster"
	"repro/internal/outcome"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/xcrypto"
)

// This file is the process-level chaos harness: it composes the Byzantine
// scenario matrix with crash-restart schedules. Each run kills a CORRECT
// replica at deterministic virtual points, keeps the workload (and the
// invariant checks) flowing while it is down, restarts it, and requires
// the cold-rejoin protocol to complete — f+1-vouched JOIN answers,
// digest-verified snapshot pull, observe-only window, resume — before the
// next cycle. Everything is a pure function of the seed, so `make
// chaos-suite` can assert bit-identical outcomes across repeated runs (the
// restart-determinism gate) as well as the invariants themselves.
//
// Victim placement: the victim is always drawn from the group the policy
// does NOT infect (for Honest, group 0). A killed replica plus a Byzantine
// one in the same group would exceed the f=1 bound the client's reply
// quorum is computed for — with replica 0 forging or muting client replies
// and a second replica dead, at most one honest reply per op can reach the
// client, so ordered operations could never be acknowledged. Safety would
// hold but the harness could not drive its workload. Splitting the faults
// across groups keeps every group within its bound while still running
// crash-restart chaos and a live adversary in the same deployment — 2PC
// pair writes cross both the degraded group and the attacked one.

// ChaosConfig selects one chaos cell. Policy Silence is not part of the
// chaos matrix for the reply-quorum reason above (it mutes replica 0
// toward the client, which composes with a same-group crash exactly like
// ForgeReads); ChaosPolicies() enumerates the supported set.
type ChaosConfig struct {
	Seed   int64
	App    string // "kv" | "rkv" | "orderbook"
	Policy string // Honest | Equivocate | ForgeReads | CorruptVotes
	Rounds int    // workload rounds per phase (default 3)
	Cycles int    // kill/restart cycles (default 2)
}

// ChaosPolicies enumerates the policies the chaos matrix composes with.
func ChaosPolicies() []string {
	return []string{Honest, Equivocate, ForgeReads, CorruptVotes}
}

// ChaosReport is the machine-checked outcome of one chaos run.
type ChaosReport struct {
	Report
	Rejoins int // completed cold rejoins (one per cycle on success)
	// Digest folds the full final state of the deployment — every
	// replica's application snapshot and decided count, the op/commit
	// totals and any violations — into one value, so two runs of the same
	// seed can be compared bit-for-bit (the restart-determinism gate).
	Digest [xcrypto.DigestLen]byte
}

// victimOf places the chaos victim: a correct FOLLOWER, in the group the
// policy does not infect, with the index rotating by seed. The victim is
// never the group's view-0 leader: killing a leader makes participant
// prepare timeouts — and therefore legal 2PC aborts — an expected outcome
// during the view change, which would force the harness to stop asserting
// "every pair write commits". Leader crash-restart liveness is proven
// separately at the cluster layer (TestRestartLeaderRejoins); here the
// schedule keeps every operation's success assertable.
func victimOf(cfg ChaosConfig) (group, idx int) {
	i := 1 + int(cfg.Seed)%2 // followers only
	switch cfg.Policy {
	case Equivocate, ForgeReads, Silence:
		return 1, i // attack on group 0 -> chaos in group 1
	default: // Honest, CorruptVotes (attack on group 1)
		return 0, i
	}
}

// RunChaos executes one chaos cell and returns its report.
func RunChaos(cfg ChaosConfig) *ChaosReport {
	rep := &ChaosReport{}
	ad, ok := adapters()[cfg.App]
	if !ok {
		rep.violate(outcome.Violated, "unknown app %q", cfg.App)
		return rep
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 3
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 2
	}

	switch cfg.Policy {
	case Honest, Equivocate, ForgeReads, CorruptVotes:
	default:
		rep.violate(outcome.Violated, "policy %q not in the chaos matrix", cfg.Policy)
		return rep
	}
	hcfg := Config{Seed: cfg.Seed, App: cfg.App, ReadMode: ReadFast, Policy: cfg.Policy}

	d, err := shard.Build(shard.Options{
		Seed:      cfg.Seed,
		Shards:    nShards,
		NewApp:    ad.newApp,
		FastReads: true,
		Group: cluster.Options{
			Fabric: newFabric(hcfg),
			// A small window so every down phase pushes the cluster far
			// enough that the victim's slots are pruned everywhere and only
			// the snapshot path can revive it.
			Window: 8,
			Tail:   8,
			// Eager fallbacks: with a replica down neither unanimity path
			// can complete, so every decision rides the slow path — at the
			// 1ms default it would collide with the view-change timer.
			SlowPathDelay: 30 * sim.Microsecond,
		},
	})
	if err != nil {
		rep.violate(outcome.Violated, "build: %v", err)
		return rep
	}
	defer d.Stop()

	h := &harness{cfg: hcfg, ad: ad, d: d, rep: &rep.Report}
	vg, vi := victimOf(cfg)
	round := 0
	phase := func(n int) {
		for j := 0; j < n; j++ {
			round++
			h.round(round)
		}
	}
	h.judged(func() {
		for cycle := 1; cycle <= cfg.Cycles; cycle++ {
			phase(cfg.Rounds) // steady
			if err := d.KillReplica(vg, vi); err != nil {
				rep.violate(outcome.Violated, "cycle %d: kill s%dr%d: %v", cycle, vg, vi, err)
				break
			}
			phase(cfg.Rounds) // down
			if err := d.RestartReplica(vg, vi); err != nil {
				rep.violate(outcome.Violated, "cycle %d: restart s%dr%d: %v", cycle, vg, vi, err)
				break
			}
			// Keep the workload flowing until the reborn replica leaves its
			// observe window: rejoin needs checkpoint advance (a stable
			// checkpoint strictly past the sync point), which needs decisions.
			victim := d.Groups[vg].Replicas[vi]
			extra := 0
			for victim.Recovering() && extra < 8*cfg.Rounds {
				extra++
				phase(1)
			}
			d.Eng.RunFor(4 * sim.Millisecond) // drain in-flight rejoin traffic
			if victim.Recovering() {
				rep.violate(outcome.Wedged, "cycle %d: s%dr%d still recovering after %d extra rounds",
					cycle, vg, vi, extra)
				break
			}
			if got := int(victim.Rejoins); got != 1 {
				rep.violate(outcome.Violated, "cycle %d: victim Rejoins = %d, want 1", cycle, got)
			}
			rep.Rejoins++
		}
		h.settle()
		// Every victim is back and the workload has stopped: with a live
		// adversary or without, the deployment must go quiet. A cell that
		// does not is fenced by its committed "unquiet" line in the outcome
		// ledger, and nowhere else.
		if err := d.Quiescent(); err != nil {
			rep.violate(outcome.Unquiet, "%v", err)
		}
	})
	rep.Digest = finalDigest(d, rep)
	return rep
}

// finalDigest folds the deployment's terminal state into one digest for
// the determinism gate. Every replica is included — with a fixed seed even
// the Byzantine one must behave identically across runs.
func finalDigest(d *shard.Deployment, rep *ChaosReport) [xcrypto.DigestLen]byte {
	var buf []byte
	for _, grp := range d.Groups {
		for ri, a := range grp.Apps {
			snap := a.Snapshot()
			buf = append(buf, byte(grp.Index), byte(ri))
			buf = appendU64(buf, uint64(len(snap)))
			buf = append(buf, snap...)
			buf = appendU64(buf, uint64(grp.Replicas[ri].DecidedCount()))
			buf = appendU64(buf, grp.Replicas[ri].Rejoins)
		}
	}
	buf = appendU64(buf, uint64(rep.Ops))
	buf = appendU64(buf, uint64(rep.Commits))
	buf = appendU64(buf, uint64(rep.Rejoins))
	for _, v := range rep.Violations {
		buf = append(buf, v...)
		buf = append(buf, 0)
	}
	return xcrypto.DigestNoCharge(buf)
}

func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}
