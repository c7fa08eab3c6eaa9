package consensus_test

// Schedules: ledger holes re-expressed as one deterministic fault rule on a
// synchronous network (no pre-GST draws), each rule naming frames by what
// they carry (frames.Describe). A schedule reproduces a known hole by a named
// deviation rather than by the luck of a seed's drops: its verdict is a line
// of the outcome ledger's [schedule] section, and a fix turns it to pass.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/frames"
	"repro/internal/ids"
	"repro/internal/outcome"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// slot0TwoViews is the shape of the ledger's agreement 133, 150 and 199:
// slot 0 decides a client request in view 0 at one replica and a no-op in a
// later view at another. Every frame carrying the view-0 PREPARE of slot 0
// to replica 1 is dropped (the LOCK, the LOCKED echoes, the SIGNED and each
// retransmission), so replica 1 never delivers it and the fast path never
// completes. At the view change, replicas 0 and 2 certify that PREPARE while
// sealing (sealTo), and their COMMITs of view 0 follow their SEAL_VIEW(1):
// no certified state of view 1 holds them, so replica 1's NEW_VIEW fills
// slot 0 with a no-op, which replica 1 decides in view 1, while the late
// view-0 COMMITs decide the request at replica 2 (ROADMAP item 1(a)).
func slot0TwoViews() outcome.Verdict {
	u := flipCluster(cluster.Options{
		Seed:              1,
		ViewChangeTimeout: sim.Millisecond,
		SlowPathDelay:     500 * sim.Microsecond,
		Window:            16,
		Tail:              8,
	})
	defer u.Stop()
	r1 := u.ReplicaIDs[1]
	u.Net.SetRule(func(_, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		d := frames.Describe(len(u.ReplicaIDs), frame)
		if to == r1 && d.Tag == wire.TagPrepare && d.View == 0 && d.Slot == 0 {
			return simnet.Drop, 0
		}
		return simnet.Deliver, 0
	})
	return outcome.Judge(u, func() outcome.Verdict {
		u.Clients[0].Invoke([]byte("m0"), func([]byte, sim.Duration) {})
		u.Eng.RunFor(100 * sim.Millisecond)
		if res, _, _ := u.InvokeSync(0, []byte("m1"), 50*sim.Millisecond); res == nil {
			return outcome.Wedged.Because("no operation completed after the view change")
		}
		return outcome.Verdict{}
	})
}

// TestSchedules runs every schedule twice, requires the two verdicts to be
// bit-identical, and compares them with the [schedule] section of the
// outcome ledger.
func TestSchedules(t *testing.T) {
	var got []outcome.Line
	for _, sc := range []struct {
		name string
		run  func() outcome.Verdict
	}{
		{"slot0-two-views", slot0TwoViews},
	} {
		first, second := sc.run(), sc.run()
		if first != second {
			t.Errorf("%s: two runs differ:\n%v\n%v", sc.name, first, second)
		}
		t.Logf("%s: %v", sc.name, first)
		got = append(got, outcome.Line{Scenario: sc.name, Seed: 1, Verdict: first})
	}
	outcome.Check(t, "schedule", got)
}
