package shard

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/frames"
	"repro/internal/ids"
	"repro/internal/router"
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

// TestReusedRecordsNeverRewritePendingCalls: a scatter read's fragments and a
// fan-out's or a transaction's commands live in buffers their records keep,
// and the consensus client reads a call's payload again on every rung of a
// read (each widening re-sends it, and a fallback orders it). A buffer is
// rewritten only when its record is reused, after every call it made was
// answered or cancelled, so every frame the client sends under one request
// number carries the same bytes, and every read merges what was written.
// Eight reads and two writes run at a time on one client, each started as
// another ends, while one replica of each group, a different one every
// millisecond, goes unheard by the client: reads whose first rung asked it
// widen 250 us later, while reads and writes begun since have reused the
// records of those that ended.
func TestReusedRecordsNeverRewritePendingCalls(t *testing.T) {
	const reads, writes, ops = 8, 2, 3000
	d := New(Options{Seed: 1, Shards: 2, FastReads: true, NewApp: func(int) app.StateMachine { return app.NewRKV() }})
	defer d.Stop()
	c, client := d.Client(0), d.ClientIDs[0]
	var keys [2][][]byte // per shard, the keys the reads and writes touch
	for n := 0; len(keys[0]) < reads || len(keys[1]) < reads; n++ {
		k := []byte(fmt.Sprintf("key-%d", n))
		keys[app.ShardOfKey(k, 2)] = append(keys[app.ShardOfKey(k, 2)], k)
	}
	for i := 0; i < reads; i++ {
		mset := app.EncodeRMSet(app.Pair{Key: keys[0][i], Val: keys[0][i]}, app.Pair{Key: keys[1][i], Val: keys[1][i]})
		if res, _, err := d.InvokeSync(0, mset, 50*sim.Millisecond); err != nil || res[0] != app.StatusOK {
			t.Fatalf("seeding write %d: res=%v err=%v", i, res, err)
		}
	}

	type callKey struct {
		tag uint8
		num uint64
	}
	sent := map[callKey][]byte{}
	var failed error
	d.Net.SetRule(func(from, to ids.ID, frame []byte) (simnet.Fate, sim.Duration) {
		if to == client {
			silent := int(d.Eng.Now() / sim.Time(sim.Millisecond) % 3)
			for g := range d.Groups {
				if from == d.Groups[g].ReplicaIDs[silent] {
					return simnet.Drop, 0
				}
			}
			return simnet.Deliver, 0
		}
		if h := frames.Describe(3, frame); from == client && h.Chan == router.ChanRPC && (h.Tag == wire.TagRequest || h.Tag == wire.TagReadRequest) {
			k := callKey{h.Tag, h.Num}
			if first, ok := sent[k]; !ok {
				sent[k] = bytes.Clone(frame)
			} else if !bytes.Equal(first, frame) && failed == nil {
				failed = fmt.Errorf("request %d (tag %d) was sent as %x and again as %x", h.Num, h.Tag, first, frame)
			}
		}
		return simnet.Deliver, 0
	})

	started, ended, txns := 0, 0, 0
	var read func(i int)
	var write func(j int)
	read = func(i int) {
		started++
		mget := app.EncodeRMGet(keys[0][i], keys[1][i])
		if _, err := c.Invoke(mget, func(res []byte, _ sim.Duration) {
			ended++
			if vals, st := app.AppendKeyedReads(nil, res); (st != app.StatusOK || len(vals) != 2 ||
				!bytes.Equal(vals[0].Value, keys[0][i]) || !bytes.Equal(vals[1].Value, keys[1][i])) && failed == nil {
				failed = fmt.Errorf("read of %q and %q answered %x", keys[0][i], keys[1][i], res)
			}
			if started < ops {
				read((i + 1) % reads)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	write = func(j int) {
		started++
		i := j % reads
		mset := app.EncodeRMSet(app.Pair{Key: keys[0][i], Val: keys[0][i]}, app.Pair{Key: keys[1][i], Val: keys[1][i]})
		if _, err := c.Invoke(mset, func(res []byte, _ sim.Duration) {
			ended++
			txns++
			if started < ops {
				write(j + 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reads; i++ {
		read(i)
	}
	for j := 0; j < writes; j++ {
		write(j)
	}
	for ended < started && failed == nil {
		if !d.Eng.Step() {
			t.Fatal("engine ran dry")
		}
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if c.ReadWidens() == 0 {
		t.Fatal("no read widened: the test shows nothing")
	}
	t.Logf("%d operations, %d of them transactions, %d reads widened", ended, txns, c.ReadWidens())
}
