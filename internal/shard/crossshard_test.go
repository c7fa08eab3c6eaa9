package shard_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/outcome"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// lockState is the embedded-LockTable surface every transactional app
// promotes (the tests inspect replicas through it, never through concrete
// app types).
type lockState interface {
	LockedKeys() int
	StagedTxs() int
	ParkedCount() int
	Decision(txid uint64) (commit, ok bool)
}

// shardApp adapts one application to the generic cross-shard tests, so
// the same scenarios run over RKV, KV and OrderBook purely through the
// capability API.
type shardApp struct {
	name   string
	newApp func(int) app.StateMachine
	// seed builds a single-key write of tag's "old" state.
	seed func(k []byte, tag string) []byte
	// write builds a multi-key write over a and b.
	write func(a, b []byte, tag string) []byte
	// read builds a multi-key read over a and b.
	read func(a, b []byte) []byte
	// readVals decodes a 2-key read response into comparable strings.
	readVals func(t *testing.T, res []byte) (string, string)
	// wrote reports a successful single-key write acknowledgement.
	wrote func(res []byte) bool
	// checkCommit validates a committed cross-shard transaction response:
	// the KV stores answer the bare one-byte StatusOK, the order book a
	// receipts envelope carrying each leg's fill summary.
	checkCommit func(t *testing.T, res []byte)
	// conflictOffset is how long after the first client's transaction the
	// second client must fire to land inside the first's prepare window
	// (app execution cost shifts the window; the cheap order book resolves
	// its whole transaction in tens of microseconds).
	conflictOffset sim.Duration
}

// tagPrice maps a tag to an order price so order-book state is
// distinguishable the way KV values are.
func tagPrice(tag string) uint64 {
	switch tag {
	case "old":
		return 100
	case "new":
		return 200
	default:
		p := uint64(300)
		for _, c := range tag {
			p += uint64(c)
		}
		return p
	}
}

func kvReadVals(t *testing.T, res []byte) (string, string) {
	t.Helper()
	if len(res) == 0 || res[0] != app.StatusOK {
		t.Fatalf("read result %v", res)
	}
	rd := wire.NewReader(res)
	rd.U8()
	if n := rd.Uvarint(); n != 2 {
		t.Fatalf("read entries = %d, want 2", n)
	}
	var out [2]string
	for i := range out {
		if rd.Bool() {
			out[i] = string(rd.Bytes())
		} else {
			out[i] = "<miss>"
		}
	}
	if rd.Done() != nil {
		t.Fatalf("read decode: %v", rd.Done())
	}
	return out[0], out[1]
}

func obReadVals(t *testing.T, res []byte) (string, string) {
	t.Helper()
	if len(res) == 0 || res[0] != app.StatusOK {
		t.Fatalf("tops result %v", res)
	}
	rd := wire.NewReader(res)
	rd.U8()
	if n := rd.Uvarint(); n != 2 {
		t.Fatalf("tops entries = %d, want 2", n)
	}
	var out [2]string
	for i := range out {
		if !rd.Bool() {
			t.Fatal("tops entry missing")
		}
		bid, _, _, _, hasBid, _, err := app.DecodeTopsEntry(rd.Bytes())
		if err != nil {
			t.Fatalf("tops blob: %v", err)
		}
		if hasBid {
			out[i] = fmt.Sprintf("bid@%d", bid)
		} else {
			out[i] = "none"
		}
	}
	return out[0], out[1]
}

// plainCommitOK asserts the receipt-less one-byte commit acknowledgement.
func plainCommitOK(t *testing.T, res []byte) {
	t.Helper()
	if len(res) != 1 || res[0] != app.StatusOK {
		t.Fatalf("2PC result = %v, want the one-byte StatusOK", res)
	}
}

// obCommitReceipts asserts the order book's committed pair transfer
// reports a per-leg fill summary (a decodable order response per leg), not
// just the commit byte.
func obCommitReceipts(t *testing.T, res []byte) {
	t.Helper()
	if len(res) == 0 || res[0] != app.StatusOK {
		t.Fatalf("2PC result = %v, want StatusOK envelope", res)
	}
	receipts, ok := app.DecodeTxnReceipts(res)
	if !ok {
		t.Fatalf("commit response %v is not a receipts envelope", res)
	}
	if len(receipts) != 2 {
		t.Fatalf("pair transfer returned %d leg receipts, want 2", len(receipts))
	}
	for i, r := range receipts {
		legOK, id, _, _, err := app.DecodeOrderResp(r)
		if err != nil || !legOK || id == 0 {
			t.Fatalf("leg %d receipt %v: ok=%v id=%d err=%v", i, r, legOK, id, err)
		}
	}
}

func shardApps() []shardApp {
	return []shardApp{
		{
			name:   "rkv",
			newApp: func(int) app.StateMachine { return app.NewRKV() },
			seed:   func(k []byte, tag string) []byte { return app.EncodeRSet(k, []byte(tag)) },
			write: func(a, b []byte, tag string) []byte {
				return app.EncodeRMSet(app.Pair{Key: a, Val: []byte(tag)}, app.Pair{Key: b, Val: []byte(tag)})
			},
			read:           func(a, b []byte) []byte { return app.EncodeRMGet(a, b) },
			readVals:       kvReadVals,
			wrote:          func(res []byte) bool { return len(res) == 1 && res[0] == app.ROK },
			checkCommit:    plainCommitOK,
			conflictOffset: 50 * sim.Microsecond,
		},
		{
			name:   "kv",
			newApp: func(int) app.StateMachine { return app.NewKV(0) },
			seed:   func(k []byte, tag string) []byte { return app.EncodeKVSet(k, []byte(tag)) },
			write: func(a, b []byte, tag string) []byte {
				return app.EncodeKVMSet(app.Pair{Key: a, Val: []byte(tag)}, app.Pair{Key: b, Val: []byte(tag)})
			},
			read:           func(a, b []byte) []byte { return app.EncodeKVMGet(a, b) },
			readVals:       kvReadVals,
			wrote:          func(res []byte) bool { return len(res) == 1 && res[0] == app.KVStored },
			checkCommit:    plainCommitOK,
			conflictOffset: 50 * sim.Microsecond,
		},
		{
			name:   "orderbook",
			newApp: func(int) app.StateMachine { return app.NewOrderBook() },
			seed: func(k []byte, tag string) []byte {
				return app.EncodeOrderSym(k, app.OpBuy, tagPrice(tag), 1)
			},
			write: func(a, b []byte, tag string) []byte {
				return app.EncodePairOrder(
					app.OrderLeg{Sym: a, Side: app.OpBuy, Price: tagPrice(tag), Qty: 1},
					app.OrderLeg{Sym: b, Side: app.OpBuy, Price: tagPrice(tag), Qty: 1},
				)
			},
			read:           func(a, b []byte) []byte { return app.EncodeTops(a, b) },
			readVals:       obReadVals,
			wrote:          func(res []byte) bool { return len(res) > 0 && res[0] == 1 },
			checkCommit:    obCommitReceipts,
			conflictOffset: 5 * sim.Microsecond,
		},
	}
}

// newDeployment assembles an S-shard deployment of one app.
func newDeployment(sa shardApp, seed int64, shards, clients int) *shard.Deployment {
	return shard.New(shard.Options{
		Seed:       seed,
		Shards:     shards,
		NumClients: clients,
		NewApp:     sa.newApp,
	})
}

// keyOnShard returns the i-th probe key hashing onto shard s.
func keyOnShard(t *testing.T, s, shards, i int) []byte {
	t.Helper()
	for n := 0; ; n++ {
		k := []byte(fmt.Sprintf("s%d-%04d", s, n))
		if app.ShardOfKey(k, shards) == s {
			if i == 0 {
				return k
			}
			i--
		}
	}
}

// TestScatterGatherRead: a multi-key read spanning shards returns, byte
// for byte, the response a single group holding every key would have
// produced — the acceptance bar for the generic Fragment/Merge path being
// deterministic and order-preserving — for every transactional app.
func TestScatterGatherRead(t *testing.T) {
	const shards = 4
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			multi := newDeployment(sa, 1, shards, 1)
			defer multi.Stop()
			single := newDeployment(sa, 1, 1, 1)
			defer single.Stop()

			// Keys on two distinct shards, the read also covering one
			// never-written key (a miss in the middle of the merge).
			k0 := keyOnShard(t, 0, shards, 0)
			k1 := keyOnShard(t, 1, shards, 0)
			for _, d := range []*shard.Deployment{multi, single} {
				for _, k := range [][]byte{k0, k1} {
					res, _, err := d.InvokeSync(0, sa.seed(k, "old"), 50*sim.Millisecond)
					if err != nil || len(res) == 0 {
						t.Fatalf("seed %q: res=%v err=%v", k, res, err)
					}
				}
			}
			read := sa.read(k1, k0) // out of shard order on purpose
			got, lat, err := multi.InvokeSync(0, read, 50*sim.Millisecond)
			if err != nil {
				t.Fatalf("cross-shard read: %v", err)
			}
			want, _, err := single.InvokeSync(0, read, 50*sim.Millisecond)
			if err != nil {
				t.Fatalf("single-shard read: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merged read = %x, single-shard baseline = %x", got, want)
			}
			if lat <= 0 {
				t.Fatalf("read latency %v, want > 0 (max per-leg latency)", lat)
			}
		})
	}
}

// TestCrossShardCommitAtomic: a multi-key write spanning groups commits
// atomically — every key readable afterwards through a cross-shard read —
// and the commit decision is durably logged in the deterministic
// coordinator group (minimum touched shard) and nowhere else. Runs over
// every transactional app.
func TestCrossShardCommitAtomic(t *testing.T) {
	const shards = 3
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			d := newDeployment(sa, 7, shards, 1)
			defer d.Stop()

			k1 := keyOnShard(t, 1, shards, 0)
			k2 := keyOnShard(t, 2, shards, 0)
			var (
				result []byte
				fired  bool
			)
			s, err := d.Client(0).Invoke(sa.write(k1, k2, "new"), func(res []byte, _ sim.Duration) { result, fired = res, true })
			if err != nil {
				t.Fatalf("cross-shard write: %v", err)
			}
			if s != shard.MultiShard {
				t.Fatalf("cross-shard write shard = %d, want MultiShard", s)
			}
			d.Eng.RunFor(20 * sim.Millisecond)
			if !fired {
				t.Fatal("2PC write never completed")
			}
			sa.checkCommit(t, result)

			res, _, err := d.InvokeSync(0, sa.read(k1, k2), 50*sim.Millisecond)
			if err != nil {
				t.Fatalf("read after commit: %v", err)
			}
			v1, v2 := sa.readVals(t, res)
			if v1 != v2 {
				t.Fatalf("commit not atomic: %q vs %q", v1, v2)
			}

			// Client 0 is host 200_000; its first transaction has txid
			// host<<32|1. The commit decision must be logged on every
			// replica of group 1 (the minimum touched shard = coordinator)
			// and on no other group; no locks or staged state survive.
			txid := uint64(200_000)<<32 | 1
			for gi, g := range d.Groups {
				for ri, a := range g.Apps {
					ls := a.(lockState)
					commit, ok := ls.Decision(txid)
					if gi == 1 && (!ok || !commit) {
						t.Fatalf("coordinator replica %d: decision (commit=%v, logged=%v), want commit logged", ri, commit, ok)
					}
					if gi != 1 && ok {
						t.Fatalf("group %d replica %d logged a decision; only the coordinator group should", gi, ri)
					}
					if n := ls.LockedKeys(); n != 0 {
						t.Fatalf("group %d replica %d holds %d locks after commit", gi, ri, n)
					}
				}
			}
		})
	}
}

// TestCrossShardAbortOnTimeout: a participant group stalled during prepare
// must not wedge the transaction — the coordinator aborts at
// PrepareTimeout, the healthy participants release their locks, no partial
// write survives, and the healthy keys stay writable. Deterministic per
// seed, for every transactional app.
func TestCrossShardAbortOnTimeout(t *testing.T) {
	const (
		shards  = 3
		timeout = shard.PrepareTimeout
	)
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			run := func() ([]byte, sim.Duration) {
				d := newDeployment(sa, 11, shards, 1)
				defer d.Stop()

				healthy := keyOnShard(t, 0, shards, 0)
				stalled := keyOnShard(t, 2, shards, 0)
				for _, r := range d.Groups[2].Replicas {
					r.Stop()
				}

				var (
					result []byte
					lat    sim.Duration
				)
				if _, err := d.Client(0).Invoke(sa.write(healthy, stalled, "never"), func(res []byte, l sim.Duration) { result, lat = res, l }); err != nil {
					t.Fatalf("cross-shard write: %v", err)
				}
				// Run past the timeout and let the aborts decide.
				d.Eng.RunFor(10 * sim.Millisecond)
				if len(result) != 1 || result[0] != app.StatusAborted {
					t.Fatalf("2PC outcome = %v, want StatusAborted", result)
				}
				if lat != timeout {
					t.Fatalf("abort latency = %v, want PrepareTimeout %v", lat, timeout)
				}

				// Locks released: the healthy key accepts a plain write and
				// no partial transaction write survived anywhere healthy.
				res, _, err := d.InvokeSync(0, sa.seed(healthy, "after"), 50*sim.Millisecond)
				if err != nil || !sa.wrote(res) {
					t.Fatalf("write after abort: res=%v err=%v", res, err)
				}
				for _, a := range d.Groups[0].Apps {
					ls := a.(lockState)
					if ls.LockedKeys() != 0 || ls.StagedTxs() != 0 || ls.ParkedCount() != 0 {
						t.Fatalf("healthy replica holds %d locks / %d staged / %d parked after abort",
							ls.LockedKeys(), ls.StagedTxs(), ls.ParkedCount())
					}
				}
				// The abort retransmission rounds must not leak pending
				// state, even toward the permanently stalled group. The
				// backoff schedule spans 2^retryAttempts timeouts.
				d.Eng.RunFor(128 * timeout)
				if n := d.Client(0).Pending(); n != 0 {
					t.Fatalf("client still tracks %d pending requests after abort resolution", n)
				}
				return result, lat
			}
			res1, lat1 := run()
			res2, lat2 := run()
			if !bytes.Equal(res1, res2) || lat1 != lat2 {
				t.Fatalf("abort not deterministic: (%v, %v) vs (%v, %v)", res1, lat1, res2, lat2)
			}
		})
	}
}

// TestLockWaitQueue: a single-key write racing an in-flight cross-shard
// transaction parks in the participant's FIFO wait queue and resumes when
// the transaction resolves — no busy retry, no lost write — for every
// transactional app. (This replaced the StatusLocked bounce-and-retry
// behavior; the status now only surfaces when the queue overflows.)
func TestLockWaitQueue(t *testing.T) {
	const (
		shards  = 3
		timeout = shard.PrepareTimeout
	)
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			d := newDeployment(sa, 11, shards, 2)
			defer d.Stop()

			healthy := keyOnShard(t, 0, shards, 0)
			stalled := keyOnShard(t, 2, shards, 0)
			for _, r := range d.Groups[2].Replicas {
				r.Stop()
			}

			var txRes []byte
			if _, err := d.Client(0).Invoke(sa.write(healthy, stalled, "never"), func(res []byte, _ sim.Duration) { txRes = res }); err != nil {
				t.Fatalf("cross-shard write: %v", err)
			}
			// Half-way through the prepare window, write the locked healthy
			// key from the second client: the write must park, not answer.
			d.Eng.RunFor(timeout / 2)
			var (
				parkedRes   []byte
				parkedFired bool
			)
			if _, err := d.Client(1).Invoke(sa.seed(healthy, "parked"), func(res []byte, _ sim.Duration) { parkedRes, parkedFired = res, true }); err != nil {
				t.Fatalf("blocked write: %v", err)
			}
			d.Eng.RunFor(timeout / 4)
			if parkedFired {
				t.Fatalf("blocked write answered %v while the key was locked; want parked", parkedRes)
			}
			// Replicas hold it in the wait queue.
			queued := 0
			for _, a := range d.Groups[0].Apps {
				if a.(lockState).ParkedCount() > 0 {
					queued++
				}
			}
			if queued == 0 {
				t.Fatal("no replica parked the blocked write")
			}

			// After the abort releases the lock, the parked write resumes
			// and acknowledges without any client retry.
			d.Eng.RunFor(10 * sim.Millisecond)
			if len(txRes) != 1 || txRes[0] != app.StatusAborted {
				t.Fatalf("transaction outcome %v, want StatusAborted", txRes)
			}
			if !parkedFired || !sa.wrote(parkedRes) {
				t.Fatalf("parked write did not resume on release: fired=%v res=%v", parkedFired, parkedRes)
			}
			for _, a := range d.Groups[0].Apps {
				if n := a.(lockState).ParkedCount(); n != 0 {
					t.Fatalf("replica still parks %d requests after release", n)
				}
			}
		})
	}
}

// TestCrossShardReadIsolation: a scatter-gather read racing a cross-shard
// write must observe either the whole transaction or none of it. Parked
// read legs (the wait queue) close the window between the participants'
// independent commit rounds, at every interleaving offset tried, for every
// transactional app.
func TestCrossShardReadIsolation(t *testing.T) {
	const shards = 2
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			for _, offset := range []sim.Duration{0, 20 * sim.Microsecond, 50 * sim.Microsecond,
				80 * sim.Microsecond, 120 * sim.Microsecond, 200 * sim.Microsecond} {
				d := newDeployment(sa, 5, shards, 2)
				k0 := keyOnShard(t, 0, shards, 0)
				k1 := keyOnShard(t, 1, shards, 0)
				for _, k := range [][]byte{k0, k1} {
					if res, _, err := d.InvokeSync(0, sa.seed(k, "old"), 50*sim.Millisecond); err != nil || !sa.wrote(res) {
						t.Fatalf("seed write: res=%v err=%v", res, err)
					}
				}

				if _, err := d.Client(0).Invoke(sa.write(k0, k1, "new"), func([]byte, sim.Duration) {}); err != nil {
					t.Fatalf("write: %v", err)
				}
				d.Eng.RunFor(offset)
				var read []byte
				if _, err := d.Client(1).Invoke(sa.read(k0, k1), func(res []byte, _ sim.Duration) { read = res }); err != nil {
					t.Fatalf("read: %v", err)
				}
				d.Eng.RunFor(50 * sim.Millisecond)
				if len(read) == 0 || read[0] != app.StatusOK {
					t.Fatalf("offset %v: read result %v", offset, read)
				}
				v0, v1 := sa.readVals(t, read)
				if v0 != v1 {
					t.Fatalf("offset %v: torn read — k0=%q k1=%q", offset, v0, v1)
				}
				d.Stop()
			}
		})
	}
}

// TestCrossShardConflictAborts: two clients racing overlapping multi-key
// writes resolve deterministically — locks make at most one prepare win per
// key, the loser aborts cleanly, and the surviving state is one
// transaction's write on every key (no interleaving). For every
// transactional app.
func TestCrossShardConflictAborts(t *testing.T) {
	const shards = 2
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			d := newDeployment(sa, 3, shards, 2)
			defer d.Stop()

			k0 := keyOnShard(t, 0, shards, 0)
			k1 := keyOnShard(t, 1, shards, 0)
			outcomes := make([][]byte, 2)
			tags := []string{"tx-a", "tx-b"}
			invoke := func(ci int) {
				if _, err := d.Client(ci).Invoke(sa.write(k0, k1, tags[ci]), func(res []byte, _ sim.Duration) { outcomes[ci] = res }); err != nil {
					t.Fatalf("client %d write: %v", ci, err)
				}
			}
			// Client 0 prepares first; client 1 follows inside client 0's
			// prepare window, so its prepares lose the locks on both
			// shards.
			invoke(0)
			d.Eng.RunFor(sa.conflictOffset)
			invoke(1)
			d.Eng.RunFor(20 * sim.Millisecond)

			for ci, res := range outcomes {
				if len(res) == 0 {
					t.Fatalf("client %d transaction never resolved", ci)
				}
			}
			if outcomes[0][0] != app.StatusOK {
				t.Fatalf("client 0 outcome = %v, want StatusOK (its prepares arrived first)", outcomes[0])
			}
			if outcomes[1][0] != app.StatusAborted {
				t.Fatalf("client 1 outcome = %v, want StatusAborted (lock conflict)", outcomes[1])
			}

			// Whatever committed, both keys carry the same transaction's
			// state (the winner's, since the loser aborted).
			res, _, err := d.InvokeSync(0, sa.read(k0, k1), 50*sim.Millisecond)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			v0, v1 := sa.readVals(t, res)
			if v0 != v1 {
				t.Fatalf("atomicity violated: k0=%q k1=%q", v0, v1)
			}
		})
	}
}

// TestCrossShardLossyNetwork: under a pre-GST lossy, delaying network the
// retransmission machinery (prepare timeout, bounded abort and commit
// retries, abort tombstones) must still resolve every transaction to a
// definitive outcome with no stranded locks, staged or parked state on any
// settled replica afterwards, and the deployment must then go quiet —
// deterministically per seed, for every transactional app. Tier-1 runs seed
// 21 twice; `make lossy-sweep` runs seeds 1-50 per app against the outcome
// ledger's [crossshard] section.
func TestCrossShardLossyNetwork(t *testing.T) {
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			v, a := lossyCrossShard(t, sa, 21)
			if v.Kind != outcome.Pass {
				t.Fatal(v)
			}
			if w, b := lossyCrossShard(t, sa, 21); w != v || !bytes.Equal(a, b) {
				t.Fatalf("lossy-network outcomes not deterministic: %v %v vs %v %v", v, a, w, b)
			}
		})
	}
}

// lossyCrossShard is TestCrossShardLossyNetwork's run of one app at one seed:
// eight cross-shard transactions submitted 2 ms apart on a 2-shard deployment
// whose network drops and delays until GST at 30 ms, then a 400 ms settle.
// It returns the run's verdict (outcome.Judge) and each transaction's status
// byte: wedged if a transaction never resolved, a group has fewer than f+1
// cleanly settled replicas or the client still tracks a request; unquiet if
// the deployment then does not go quiet.
func lossyCrossShard(t *testing.T, sa shardApp, seed int64) (outcome.Verdict, []byte) {
	const (
		shards = 2
		nTx    = 8
	)
	d := shard.New(shard.Options{
		Seed:   seed,
		Shards: shards,
		NewApp: sa.newApp,
		// Pre-GST loss and delay. View changes give the groups post-GST
		// liveness (the same requirement the consensus asynchrony tests
		// document): a leader wedged by pre-GST loss must be replaceable, or
		// no retransmission round can ever land. The NEW-VIEW state the
		// backlog accumulates can outgrow the default message cap; it
		// fragments.
		Group: cluster.Options{Fabric: simnet.AsFabric(simnet.New(sim.NewEngine(seed), simnet.Options{
			BaseLatency:   2 * sim.Microsecond,
			Jitter:        sim.Microsecond / 2,
			GST:           sim.Time(30 * sim.Millisecond),
			AsyncExtraMax: 3 * sim.Millisecond,
			AsyncDropProb: 0.15,
		}))},
	})
	defer d.Stop()

	var summary []byte
	v := outcome.Judge(d, func() outcome.Verdict {
		outcomes := make([][]byte, nTx)
		for i := 0; i < nTx; i++ {
			i := i
			w := sa.write(keyOnShard(t, 0, shards, i), keyOnShard(t, 1, shards, i), "v")
			if _, err := d.Client(0).Invoke(w, func(res []byte, _ sim.Duration) { outcomes[i] = res }); err != nil {
				return outcome.Violated.Because("tx %d: %v", i, err)
			}
			d.Eng.RunFor(2 * sim.Millisecond)
		}
		// Run well past GST so every retry round and late frame settles. The
		// orderbook cell at seed 21 needs the most: its group 1 still completes
		// view changes ~330 and ~450 ms after the last transaction, and
		// Quiescent watches a window starting 100 ms after this settle.
		d.Eng.RunFor(400 * sim.Millisecond)

		for i, res := range outcomes {
			if len(res) == 0 {
				return outcome.Wedged.Because("tx %d never resolved under the lossy network", i)
			}
			if res[0] != app.StatusOK && res[0] != app.StatusAborted {
				return outcome.Violated.Because("tx %d outcome %v", i, res)
			}
			summary = append(summary, res[0])
		}
		// Quorum-level settlement: with f=1, one replica per group may lag
		// behind the decided prefix indefinitely (it catches up at the next
		// checkpoint-driven state transfer), so require a clean f+1 quorum
		// rather than all 2f+1.
		for gi, g := range d.Groups {
			clean := 0
			for _, a := range g.Apps {
				ls := a.(lockState)
				if ls.LockedKeys() == 0 && ls.StagedTxs() == 0 && ls.ParkedCount() == 0 {
					clean++
				}
			}
			if clean < 2 {
				return outcome.Wedged.Because("group %d: only %d of %d replicas settled cleanly", gi, clean, len(g.Apps))
			}
		}
		if n := d.Client(0).Pending(); n != 0 {
			return outcome.Wedged.Because("client still tracks %d pending requests after settling", n)
		}
		// Every transaction has resolved and GST is long past: the deployment
		// must now go quiet (2.78M messages and views still rotating at this
		// point, before retransmission backed off).
		if err := d.Quiescent(); err != nil {
			return outcome.Unquiet.Because("%v", err)
		}
		return outcome.Verdict{}
	})
	return v, summary
}

// TestCrossShardDeterminism: a mixed single-/cross-shard sequence produces
// bit-identical results and virtual-time latencies across runs, for every
// transactional app.
func TestCrossShardDeterminism(t *testing.T) {
	const shards = 3
	type outcome struct {
		res []byte
		lat sim.Duration
	}
	for _, sa := range shardApps() {
		t.Run(sa.name, func(t *testing.T) {
			run := func() []outcome {
				d := newDeployment(sa, 42, shards, 1)
				defer d.Stop()
				var out []outcome
				record := func(res []byte, lat sim.Duration, err error) {
					if err != nil {
						t.Fatalf("invoke: %v", err)
					}
					out = append(out, outcome{res: res, lat: lat})
				}
				k0 := keyOnShard(t, 0, shards, 1)
				k1 := keyOnShard(t, 1, shards, 1)
				k2 := keyOnShard(t, 2, shards, 1)
				res, lat, err := d.InvokeSync(0, sa.seed(k0, "a"), 50*sim.Millisecond)
				record(res, lat, err)
				res, lat, err = d.InvokeSync(0, sa.write(k1, k2, "b"), 50*sim.Millisecond)
				record(res, lat, err)
				res, lat, err = d.InvokeSync(0, sa.read(k1, k2), 50*sim.Millisecond)
				record(res, lat, err)
				return out
			}
			x, y := run(), run()
			if len(x) != len(y) {
				t.Fatalf("run lengths differ: %d vs %d", len(x), len(y))
			}
			for i := range x {
				if x[i].lat != y[i].lat || !bytes.Equal(x[i].res, y[i].res) {
					t.Fatalf("divergence at step %d: (%v,%v) vs (%v,%v)", i, x[i].res, x[i].lat, y[i].res, y[i].lat)
				}
			}
		})
	}
}
