package consensus_test

// The three lossy scenarios as functions of their seed. Tier-1 runs each at
// one fixed seed (TestRestartRejoinsUnderLossyFabric, TestPreGSTNever-
// ViolatesAgreement, TestSoakWithPartitionChurn); `make lossy-sweep` runs
// them over seed ranges and tabulates pass / wedged / diverged; a seed that
// diverges is kept, with its trace, in knownholes_test.go.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// verdict is how one seeded run of a lossy scenario ended.
type verdict struct {
	kind string // pass, wedged (a liveness expectation failed) or diverged (two replicas at one slot count hold different state)
	note string
}

var passed = verdict{kind: "pass"}

func (v verdict) String() string { return v.kind + ": " + v.note }
func (v verdict) ok() bool       { return v.kind == passed.kind }

func wedged(format string, args ...any) verdict {
	return verdict{"wedged", fmt.Sprintf(format, args...)}
}

// execTrace records every request the replicas' applications execute, as
// (replica, slot, view at execution, request): the decide trace a divergence
// is read off. The applications are embedded, so every capability assertion
// the replica makes on them still holds and timing is unchanged.
type execTrace struct {
	u    *cluster.UBFT
	rows []execRow
}

type execRow struct {
	replica int
	restore bool // a snapshot replaced the state: what ran before says nothing about it
	slot    consensus.Slot
	view    consensus.View
	req     string
}

func (tr *execTrace) record(sm app.StateMachine, restore bool, req []byte) {
	for i, a := range tr.u.Apps {
		if a == sm {
			r := tr.u.Replicas[i]
			tr.rows = append(tr.rows, execRow{i, restore, r.LastApplied() - 1, r.View(), fmt.Sprintf("%q", req)})
		}
	}
}

type tracedKV struct {
	*app.KV
	tr *execTrace
}

func (a *tracedKV) Apply(req []byte) []byte { a.tr.record(a, false, req); return a.KV.Apply(req) }
func (a *tracedKV) Restore(snap []byte)     { a.tr.record(a, true, nil); a.KV.Restore(snap) }

type tracedFlip struct {
	*app.Flip
	tr *execTrace
}

func (a *tracedFlip) Apply(req []byte) []byte { a.tr.record(a, false, req); return a.Flip.Apply(req) }
func (a *tracedFlip) Restore(snap []byte)     { a.tr.record(a, true, nil); a.Flip.Restore(snap) }

// disagreements lists, for replicas i and j, the slots both executed since
// their last snapshot in which they did not execute the same requests ("-":
// nothing executed there, a no-op or a request deduplicated as already done),
// each with the view its replica was in when it executed.
func (tr *execTrace) disagreements(i, j int) string {
	type ran struct{ reqs, shown string }
	var since [2]map[consensus.Slot]ran
	from := [2]consensus.Slot{}
	for k, replica := range [2]int{i, j} {
		since[k] = map[consensus.Slot]ran{}
		for _, row := range tr.rows {
			switch {
			case row.replica != replica:
			case row.restore:
				since[k], from[k] = map[consensus.Slot]ran{}, tr.u.Replicas[replica].LastApplied()
			default:
				at := since[k][row.slot]
				since[k][row.slot] = ran{at.reqs + row.req, fmt.Sprintf("%s%s (view %d) ", at.shown, row.req, row.view)}
				from[k] = min(from[k], row.slot)
			}
		}
	}
	var b strings.Builder
	for s := max(from[0], from[1]); s < tr.u.Replicas[i].LastApplied(); s++ {
		if x, y := since[0][s], since[1][s]; x.reqs != y.reqs {
			fmt.Fprintf(&b, "\n  slot %d: replica %d executed %s, replica %d executed %s", s, i, orDash(x.shown), j, orDash(y.shown))
		}
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return strings.TrimSpace(s)
}

// agreement is the safety check all three scenarios end with: any two
// replicas that executed the same number of slots hold byte-identical state.
func agreement(u *cluster.UBFT, tr *execTrace) verdict {
	for i := range u.Replicas {
		for j := i + 1; j < len(u.Replicas); j++ {
			if u.Replicas[i].LastApplied() == u.Replicas[j].LastApplied() && !bytes.Equal(u.Apps[i].Snapshot(), u.Apps[j].Snapshot()) {
				return verdict{"diverged", fmt.Sprintf("replicas %d and %d applied %d slots and hold different state%s",
					i, j, u.Replicas[i].LastApplied(), tr.disagreements(i, j))}
			}
		}
	}
	return passed
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
	tr := &execTrace{}
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return &tracedKV{app.NewKV(0), tr} },
		Window:            8,
		Tail:              8,
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     30 * sim.Microsecond,
	})
	tr.u = u
	defer u.Stop()

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
	if v := agreement(u, tr); !v.ok() {
		return v
	}
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
	tr := &execTrace{}
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return &tracedFlip{app.NewFlip(), tr} },
		Fabric:            simnet.AsFabric(simnet.New(sim.NewEngine(seed), netOpts)),
		ViewChangeTimeout: 3 * sim.Millisecond,
		SlowPathDelay:     500 * sim.Microsecond,
		Window:            16,
		Tail:              8,
	})
	tr.u = u
	defer u.Stop()
	for i := 0; i < 10; i++ {
		u.Clients[0].Invoke([]byte(fmt.Sprintf("m%d", i)), func([]byte, sim.Duration) {})
		u.Eng.RunFor(2 * sim.Millisecond)
	}
	// Let the system stabilize well past GST.
	u.Eng.RunUntil(sim.Time(40 * sim.Millisecond))
	u.Eng.RunFor(200 * sim.Millisecond)
	return agreement(u, tr)
}

// partitionChurnSoak is a randomized fault-injection run: random link
// partitions open and heal while a client keeps submitting. Replicas must
// never diverge on executed state (agreement + total order), whatever the
// network does, and a third of the requests must complete.
func partitionChurnSoak(seed int64, logf func(string, ...any)) verdict {
	tr := &execTrace{}
	u := flipCluster(cluster.Options{
		Seed:              seed,
		NewApp:            func() app.StateMachine { return &tracedKV{app.NewKV(0), tr} },
		ViewChangeTimeout: sim.Millisecond,
		SlowPathDelay:     100 * sim.Microsecond,
		Window:            16,
		Tail:              8,
	})
	tr.u = u
	defer u.Stop()
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
	// With the network healed and time to recover, any two replicas at the
	// same slot count must agree.
	if v := agreement(u, tr); !v.ok() {
		return v
	}
	if completed < 10 {
		return wedged("only %d/30 requests completed under churn", completed)
	}
	logf("%d/30 requests completed under churn", completed)
	return passed
}
