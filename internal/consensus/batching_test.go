package consensus_test

// Black-box tests of leader batching (the §9 extension): the leader keeps
// one fresh proposal in flight and packs what queued behind it into the
// next PREPARE. No option switches it on, so every test here runs the
// default cluster and differs only in how many requests it keeps in flight.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/wire"
)

// closedLoop keeps depth requests of client ci in flight until total have
// been issued, then runs the engine until all completed or budget passes.
// next builds request i; done sees each result in completion order.
func closedLoop(t *testing.T, u *cluster.UBFT, ci, depth, total int, budget sim.Duration,
	next func(i int) []byte, done func(i int, res []byte, lat sim.Duration)) {
	t.Helper()
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		i := issued
		issued++
		u.Clients[ci].Invoke(next(i), func(res []byte, lat sim.Duration) {
			completed++
			done(i, res, lat)
			if issued < total {
				issue()
			}
		})
	}
	for issued < depth && issued < total {
		issue()
	}
	if err := cluster.SyncWait(u.Eng, budget, func() bool { return completed == total }); err != nil {
		t.Fatalf("closed loop: %d/%d completed: %v", completed, total, err)
	}
}

// TestDepthOneNeverBatches: a lone closed-loop client never queues behind
// itself, so every slot holds exactly one request, and nothing waits on an
// accumulation timer (the retired batcher's 5 us would show as ~16.7 us).
func TestDepthOneNeverBatches(t *testing.T) {
	u := flipCluster(cluster.Options{})
	defer u.Stop()
	const n = 200
	var lats []sim.Duration
	closedLoop(t, u, 0, 1, n, 50*sim.Millisecond,
		func(i int) []byte { return []byte(fmt.Sprintf("req-%04d", i)) },
		func(_ int, _ []byte, lat sim.Duration) { lats = append(lats, lat) })
	u.Eng.RunFor(sim.Millisecond)
	for i, r := range u.Replicas {
		if r.Executed != n || r.LastApplied() != n {
			t.Errorf("replica %d: %d requests in %d slots, want %d in %d", i, r.Executed, r.LastApplied(), n, n)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p50 := lats[n/2]; p50 > 13*sim.Microsecond {
		t.Errorf("depth-1 p50 %v: something delays a lone request", p50)
	}
}

// TestDepthEightSharesSlots: eight requests in flight queue behind the slot
// being decided and ride the next one together, in the order the client
// issued them. APPEND makes the order visible: the final value is the
// concatenation of the sequence numbers.
func TestDepthEightSharesSlots(t *testing.T) {
	u := flipCluster(cluster.Options{NewApp: func() app.StateMachine { return app.NewRKV() }})
	defer u.Stop()
	const n = 160
	key := []byte("log")
	var want bytes.Buffer
	closedLoop(t, u, 0, 8, n, 100*sim.Millisecond,
		func(i int) []byte {
			tok := fmt.Sprintf("%03d,", i)
			want.WriteString(tok)
			return app.EncodeRAppend(key, []byte(tok))
		},
		func(i int, res []byte, _ sim.Duration) {
			if len(res) == 0 || res[0] != app.ROK {
				t.Fatalf("append %d: %v", i, res)
			}
		})
	u.Eng.RunFor(sim.Millisecond)
	for i, r := range u.Replicas {
		if r.Executed != n {
			t.Errorf("replica %d executed %d/%d", i, r.Executed, n)
		}
		if slots := int(r.LastApplied()); slots >= n {
			t.Errorf("replica %d used %d slots for %d requests at depth 8: nothing shared a slot", i, slots, n)
		}
		res, ok := u.Apps[i].(app.ReadExecutor).ApplyRead(app.EncodeRGet(key))
		if !ok || len(res) < 1 || !bytes.HasSuffix(res, want.Bytes()) {
			t.Errorf("replica %d: per-client FIFO broken: log %q, want %q", i, res, want.Bytes())
		}
	}
}

// TestOversizeBatchSplits is the regression test for the count-only packer:
// requests that together exceed the request cap must be split over several
// PREPAREs instead of overflowing the CTBcast message cap (the old packer,
// told to pack eight, panicked the leader on eight 2 KiB requests).
func TestOversizeBatchSplits(t *testing.T) {
	u := flipCluster(cluster.Options{MsgCap: 4096, NumClients: 2})
	defer u.Stop()
	big := bytes.Repeat([]byte{'x'}, 2048)   // two never fit one container
	small := bytes.Repeat([]byte{'y'}, 1000) // three do, four do not
	done := 0
	for _, c := range u.Clients {
		for i := 0; i < 8; i++ {
			p := big
			if i%2 == 1 {
				p = small
			}
			c.Invoke(p, func(res []byte, _ sim.Duration) {
				if len(res) != len(p) {
					t.Errorf("flip of %d bytes returned %d", len(p), len(res))
				}
				done++
			})
		}
	}
	if err := cluster.SyncWait(u.Eng, 50*sim.Millisecond, func() bool { return done == 16 }); err != nil {
		t.Fatalf("%d/16 completed: %v", done, err)
	}
	if slots := u.Replicas[0].LastApplied(); slots >= 16 || slots < 6 {
		t.Errorf("16 requests (8 x 2 KiB, 8 x 1000 B) under a 4 KiB cap used %d slots", slots)
	}
}

// TestBatchedWritesShareOneVersion: every request of a slot s produces
// state version s+1. Two SETs of one key that share a slot leave the later
// value at that version; a read pinned there sees it, a read pinned one
// version earlier sees neither, and the client's read floor, ratcheted by
// the acknowledgement, makes a following fast read see it too.
func TestBatchedWritesShareOneVersion(t *testing.T) {
	u := flipCluster(cluster.Options{NewApp: func() app.StateMachine { return app.NewKV(0) }})
	defer u.Stop()
	c := u.Clients[0]
	k := []byte("k")
	acked := 0
	ack := func([]byte, sim.Duration) { acked++ }
	// The first request finds the pipeline idle and goes alone (slot 0);
	// the two SETs complete their echo rounds while it is in flight and
	// share slot 1.
	c.Invoke(app.EncodeKVSet([]byte("other"), []byte("x")), ack)
	c.Invoke(app.EncodeKVSet(k, []byte("first")), ack)
	c.Invoke(app.EncodeKVSet(k, []byte("second")), ack)
	if err := cluster.SyncWait(u.Eng, 10*sim.Millisecond, func() bool { return acked == 3 }); err != nil {
		t.Fatal(err)
	}
	for i, r := range u.Replicas {
		if r.LastApplied() != 2 || r.Executed != 3 {
			t.Fatalf("replica %d: %d requests in %d slots, want 3 in 2", i, r.Executed, r.LastApplied())
		}
	}
	if floor := c.ReadFloor(0); floor != 2 {
		t.Fatalf("read floor %d after a write acknowledged from slot 1, want 2", floor)
	}
	readAt := func(at consensus.Slot) []byte {
		var out []byte
		fired := false
		c.CallAt(0, app.EncodeKVGet(k), consensus.Mode{Read: true, At: at}, func(o consensus.Outcome) {
			if o.FellBack {
				t.Errorf("read pinned at %d fell back to the ordered path", at)
			}
			out, fired = o.Result, true
		})
		if err := cluster.SyncWait(u.Eng, 10*sim.Millisecond, func() bool { return fired }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := kvValue(readAt(2)); got != "second" {
		t.Errorf("read pinned at version 2: %q, want the slot's later SET", got)
	}
	if res := readAt(1); len(res) != 1 || res[0] != app.KVMiss {
		t.Errorf("read pinned at version 1 sees the key: %v", res)
	}
	var fast []byte
	c.Call(0, app.EncodeKVGet(k), consensus.Mode{Read: true}, func(res []byte, _ sim.Duration) { fast = res })
	if err := cluster.SyncWait(u.Eng, 10*sim.Millisecond, func() bool { return fast != nil }); err != nil {
		t.Fatal(err)
	}
	if got := kvValue(fast); got != "second" || c.FastReads == 0 || c.ReadFallbacks != 0 {
		t.Errorf("fast read after the batched write: %q (fast=%d fallbacks=%d)", got, c.FastReads, c.ReadFallbacks)
	}
}

// kvValue unwraps a KV hit ([StatusOK | value]); "" for anything else.
func kvValue(res []byte) string {
	rd := wire.NewReader(res)
	if rd.U8() != app.StatusOK {
		return ""
	}
	v := rd.Bytes()
	if rd.Done() != nil {
		return ""
	}
	return string(v)
}

// TestExactlyOnceAcrossViewChangeAtDepth4 drives non-idempotent INCRs at
// depth 4 and kills the leader with requests queued and a batch in flight.
// The view change re-routes every undecided request as fresh work while the
// new leader may also have to re-propose the old slot, so one request can be
// decided twice, with later requests of the same client executed in between
// — the case a high-water mark alone cannot tell from a late first
// execution (it tripped here with replies jumping from 21 to 30). Every
// acknowledged INCR must have counted exactly once, on every surviving
// replica; every INCR issued must be acknowledged once the clients stop
// issuing (the two survivors drain what is in flight, view changes and all),
// and the cluster must then go quiet with its leader dead.
func TestExactlyOnceAcrossViewChangeAtDepth4(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			u := flipCluster(cluster.Options{
				Seed:       seed,
				NumClients: 2,
				NewApp:     func() app.StateMachine { return app.NewRKV() },
				// Fallbacks well above a loaded slot (four 15 us INCRs and
				// their messages), suspicion above a signed slot.
				ViewChangeTimeout: 3 * sim.Millisecond,
				SlowPathDelay:     300 * sim.Microsecond,
			})
			defer u.Stop()
			const depth, killAfter = 4, 200
			keys := [][]byte{[]byte("ctr-0"), []byte("ctr-1")}
			acked := make([]int, len(keys))
			issued := make([]int, len(keys))
			ackedAtKill := -1
			stop := false
			var issue func(ci int)
			issue = func(ci int) {
				issued[ci]++
				u.Clients[ci].Invoke(app.EncodeRIncr(keys[ci]), func(res []byte, _ sim.Duration) {
					acked[ci]++
					// One writer per key, FIFO per client: the replies count up.
					if got := incrReply(res); got != acked[ci] {
						t.Errorf("client %d: INCR reply %d is %d", ci, acked[ci], got)
					}
					if ackedAtKill < 0 && acked[0]+acked[1] >= killAfter && u.Replicas[0].Footprint().Queued > 0 {
						ackedAtKill = acked[0] + acked[1]
						if err := u.KillReplica(0); err != nil {
							t.Fatal(err)
						}
					}
					if !stop {
						issue(ci)
					}
				})
			}
			for ci := range keys {
				for i := 0; i < depth; i++ {
					issue(ci)
				}
			}
			u.Eng.RunFor(60 * sim.Millisecond)
			stop = true
			u.Eng.RunFor(60 * sim.Millisecond) // no new requests: what is in flight drains
			switch {
			case ackedAtKill < 0:
				t.Fatalf("the leader never had a queue to be killed with (acked %v issued %v, now %v)", acked, issued, u.Eng.Now())
			case acked[0]+acked[1] <= ackedAtKill:
				t.Fatalf("nothing acknowledged after the leader was killed (%d before)", ackedAtKill)
			}
			for ci := range keys {
				if acked[ci] != issued[ci] {
					t.Errorf("client %d: %d of %d INCRs acknowledged after the drain", ci, acked[ci], issued[ci])
				}
			}
			if err := u.Quiescent(); err != nil {
				t.Errorf("not quiescent after the drain: %v", err)
			}
			for _, ri := range []int{1, 2} {
				for ci, key := range keys {
					res, _ := u.Apps[ri].(app.ReadExecutor).ApplyRead(app.EncodeRGet(key))
					got, _ := strconv.Atoi(kvValue(res))
					// Every acknowledged INCR executed here or is about to (a
					// replica may trail the f+1 that answered); none twice.
					if got > issued[ci] || (acked[ci] == issued[ci] && got != acked[ci]) {
						t.Errorf("replica %d: %s = %d with %d INCRs issued, %d acknowledged", ri, key, got, issued[ci], acked[ci])
					}
				}
			}
			if err := u.CheckAgreement(); err != nil {
				t.Error(err)
			}
			t.Logf("acknowledged %v of %v issued, %d before the kill", acked, issued, ackedAtKill)
		})
	}
}

// incrReply decodes an INCR answer ([StatusOK | int64]); -1 for anything else.
func incrReply(res []byte) int {
	rd := wire.NewReader(res)
	if rd.U8() != app.StatusOK {
		return -1
	}
	n := rd.I64()
	if rd.Done() != nil {
		return -1
	}
	return int(n)
}
