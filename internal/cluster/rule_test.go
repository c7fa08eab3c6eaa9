package cluster

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/frames"
	"repro/internal/ids"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/xcrypto"
)

// TestRuleHoldsAndKillsAtProtocolSteps drives faults from the network's one
// rule, which names frames by what they carry (frames.Describe): every client
// request to replica 1 is held for 200us and then
// released, and replica 2's first summary share kills it, with a restart
// 1 ms later. The run must complete every operation, keep the replicas in
// agreement, go quiet, and be a pure function of its seed.
func TestRuleHoldsAndKillsAtProtocolSteps(t *testing.T) {
	run := func() string {
		u := NewUBFT(Options{
			Seed:              5,
			NewApp:            func() app.StateMachine { return app.NewKV(0) },
			Window:            8,
			Tail:              8,
			SlowPathDelay:     30 * sim.Microsecond,
			ViewChangeTimeout: 3 * sim.Millisecond,
		})
		defer u.Stop()
		client, r1, r2 := u.ClientIDs[0], u.ReplicaIDs[1], u.ReplicaIDs[2]
		held, killedAt := 0, sim.Time(-1)
		holding := false
		u.Net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
			d := frames.Describe(len(u.ReplicaIDs), frame)
			switch {
			case from == client && to == r1 && d.Tag == wire.TagRequest:
				held++
				if !holding {
					holding = true
					u.Eng.After(200*sim.Microsecond, func() { holding = false; u.Net.Release(client, r1) })
				}
				return simnet.Hold, 0
			case from == r2 && d.Chan == router.ChanSummary && killedAt < 0:
				killedAt = u.Eng.Now()
				u.Eng.After(0, func() {
					if err := u.KillReplica(2); err != nil {
						t.Error(err)
					}
				})
				u.Eng.After(sim.Millisecond, func() {
					if err := u.RestartReplica(2); err != nil {
						t.Error(err)
					}
				})
			}
			return simnet.Deliver, 0
		})
		var lats []sim.Duration
		for i := 0; i < 60; i++ {
			_, lat, err := u.InvokeSync(0, app.EncodeKVSet([]byte(fmt.Sprintf("k%02d", i%16)), []byte{byte(i)}), 200*sim.Millisecond)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			lats = append(lats, lat)
		}
		if killedAt < 0 || held == 0 {
			t.Fatalf("the rule never fired: killed at %v, %d requests held", killedAt, held)
		}
		if err := u.Quiescent(); err != nil {
			t.Fatal(err)
		}
		if err := u.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("killed at %v, %d held, dropped %d of %d, now %v, latencies %v",
			killedAt, held, u.Net.Dropped, u.Net.MsgsSent, u.Eng.Now(), lats)
		for i, r := range u.Replicas {
			out += fmt.Sprintf("; replica %d: view %d, %d decided, rejoins %d, state %x",
				i, r.View(), r.DecidedCount(), r.Rejoins, xcrypto.ChecksumNoCharge(u.Apps[i].Snapshot()))
		}
		return out
	}
	first, second := run(), run()
	t.Log(first)
	if first != second {
		t.Fatalf("two runs of one seed differ:\n%s\n%s", first, second)
	}
}
