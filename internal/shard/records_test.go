package shard

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// recordRig is a two-shard RKV deployment with one client, and a 2PC MSET
// over one key on each shard.
type recordRig struct {
	d    *Deployment
	c    *Client
	mset []byte
}

func newRecordRig(t *testing.T) *recordRig {
	t.Helper()
	d := New(Options{Seed: 1, Shards: 2, NewApp: func(int) app.StateMachine { return app.NewRKV() }})
	var keys [2][]byte
	for n := 0; keys[0] == nil || keys[1] == nil; n++ {
		k := []byte(fmt.Sprintf("k%d", n))
		if s := app.ShardOfKey(k, 2); keys[s] == nil {
			keys[s] = k
		}
	}
	mset := app.EncodeRMSet(app.Pair{Key: keys[0], Val: []byte("v")}, app.Pair{Key: keys[1], Val: []byte("v")})
	return &recordRig{d: d, c: d.Client(0), mset: mset}
}

// commit runs one MSET to its outcome, which must be a commit.
func (rig *recordRig) commit(t *testing.T) {
	t.Helper()
	res, _, err := rig.d.InvokeSync(0, rig.mset, 50*sim.Millisecond)
	if err != nil || len(res) != 1 || res[0] != app.StatusOK {
		t.Fatalf("cross-shard write: res=%v err=%v", res, err)
	}
}

// decided is how many slots the two groups decided.
func (rig *recordRig) decided() [2]int {
	return [2]int{rig.d.Groups[0].DecidedCount(), rig.d.Groups[1].DecidedCount()}
}

// requireDistinct fails if a free list holds one record twice: a record
// released twice would be handed to two users at once.
func requireDistinct[V any](t *testing.T, name string, fl wire.FreeList[V]) {
	t.Helper()
	for i, v := range fl {
		if slices.Index(fl[i+1:], v) >= 0 {
			t.Fatalf("%s free list holds a record twice", name)
		}
	}
}

// TestStaleCallbackAfterRecordReuse: a shard client's record goes back to
// its free list only once nothing can call into it. A fan-out's round timer
// is never cancelled, so a fan-out that every group acknowledged stays out
// of the free list until its timer fires, and the transactions that run
// meanwhile take records of their own; a stale round timer would otherwise
// cancel or retransmit a later fan-out's calls. A reply to a call cancelled
// before its record was reused changes nothing either: the consensus client
// drops it, and the transaction that reuses the record commits with exactly
// its own ordered commands.
func TestStaleCallbackAfterRecordReuse(t *testing.T) {
	t.Run("round timer", func(t *testing.T) {
		rig := newRecordRig(t)
		defer rig.d.Stop()
		rig.commit(t)
		if n := len(rig.c.fanouts); n != 0 {
			t.Fatalf("%d fan-out records released while their round timers are pending", n)
		}
		rig.d.Eng.RunFor(PrepareTimeout)
		if n := len(rig.c.fanouts); n != 2 {
			t.Fatalf("%d fan-out records released after their round timers fired, want the decide's and the commit's", n)
		}
		// Back to back, every fan-out's round timer fires while later
		// transactions are in flight on reused records.
		const txns = 60
		before := rig.decided()
		for i := 0; i < txns; i++ {
			rig.commit(t)
			requireDistinct(t, "fan-out", rig.c.fanouts)
			requireDistinct(t, "transaction", rig.c.txs)
		}
		rig.d.Eng.RunFor(2 * PrepareTimeout)
		after := rig.decided()
		for g := range after {
			if got := after[g] - before[g]; got != 2*txns {
				t.Fatalf("group %d decided %d slots for %d transactions, want %d: a stale timer retransmitted", g, got, txns, 2*txns)
			}
		}
		if n := rig.c.Pending(); n != 0 {
			t.Fatalf("client holds %d pending requests", n)
		}
	})

	t.Run("late reply", func(t *testing.T) {
		rig := newRecordRig(t)
		defer rig.d.Stop()
		// Two replicas of group 1 go unheard by the client and the third's
		// answers arrive lateBy late: group 1's prepare vote misses
		// PrepareTimeout, the transaction aborts, and the abort fan-out's
		// calls to group 1 are cancelled round after round. The six rounds
		// end 128 ms after the write began, when both records go back to
		// the free list; every late answer arrives after that, while later
		// transactions, which need f+1 = 2 of group 1's answers, run on the
		// recycled records. (A link delivers in order, so the slow
		// replica's answers to those transactions are late too.)
		const lateBy = 130 * sim.Millisecond
		client, group1 := rig.d.ClientIDs[0], rig.d.Groups[1].ReplicaIDs
		rig.d.Net.SetRule(func(from, to ids.ID, _ []byte) (simnet.Fate, sim.Duration) {
			switch {
			case to != client || !slices.Contains(group1, from):
				return simnet.Deliver, 0
			case from == group1[2]:
				return simnet.Deliver, lateBy
			default:
				return simnet.Drop, 0
			}
		})
		start := rig.d.Eng.Now()
		res, _, err := rig.d.InvokeSync(0, rig.mset, 50*sim.Millisecond)
		if err != nil || len(res) != 1 || res[0] != app.StatusAborted {
			t.Fatalf("write with group 1 late: res=%v err=%v, want an abort", res, err)
		}
		rig.d.Eng.RunFor(100 * sim.Millisecond) // the last abort round went out and was answered
		rig.d.Net.SetRule(nil)
		rig.d.Eng.RunUntil(start.Add(129 * sim.Millisecond))
		if len(rig.c.txs) != 1 || len(rig.c.fanouts) != 1 || rig.c.Pending() != 0 {
			t.Fatalf("after the abort: %d transaction and %d fan-out records kept, %d calls pending; want 1, 1, 0",
				len(rig.c.txs), len(rig.c.fanouts), rig.c.Pending())
		}

		// Transactions run back to back on the recycled records while the
		// late answers arrive.
		before, txns := rig.decided(), 0
		for rig.d.Eng.Now() < start.Add(lateBy+70*sim.Millisecond) {
			rig.commit(t)
			txns++
		}
		rig.d.Eng.RunFor(2 * PrepareTimeout)
		after := rig.decided()
		for g := range after {
			if got := after[g] - before[g]; got != 2*txns {
				t.Fatalf("group %d decided %d slots for %d transactions, want %d", g, got, txns, 2*txns)
			}
		}
		requireDistinct(t, "fan-out", rig.c.fanouts)
		requireDistinct(t, "transaction", rig.c.txs)
		if n := rig.c.Pending(); n != 0 {
			t.Fatalf("client holds %d pending requests", n)
		}
	})
}
