package shard_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// fastDeployment assembles an S-shard KV deployment with fast reads on.
func fastDeployment(seed int64, shards, clients int, fast bool) *shard.Deployment {
	return shard.New(shard.Options{
		Seed:       seed,
		Shards:     shards,
		NumClients: clients,
		NewApp:     func(int) app.StateMachine { return app.NewKV(0) },
		FastReads:  fast,
	})
}

// TestFastReadMatchesOrdered: a fast-path read — single-group and
// cross-shard scatter-gather alike — returns byte-identical results to the
// ordered path at the same state, and really rides the unordered quorum
// (fast accepts recorded, no fallbacks on the clean fabric).
func TestFastReadMatchesOrdered(t *testing.T) {
	const shards = 2
	fast := fastDeployment(1, shards, 1, true)
	defer fast.Stop()
	ordered := fastDeployment(1, shards, 1, false)
	defer ordered.Stop()

	k0 := keyOnShard(t, 0, shards, 0)
	k1 := keyOnShard(t, 1, shards, 0)
	for _, d := range []*shard.Deployment{fast, ordered} {
		for i, k := range [][]byte{k0, k1} {
			val := []byte(fmt.Sprintf("val-%d", i))
			if res, _, err := d.InvokeSync(0, app.EncodeKVSet(k, val), 50*sim.Millisecond); err != nil || len(res) != 1 || res[0] != app.KVStored {
				t.Fatalf("seed write: res=%v err=%v", res, err)
			}
		}
	}

	// Single-group read (one key) and cross-shard scatter (both keys, out
	// of shard order): fast must equal ordered byte for byte.
	for _, read := range [][]byte{app.EncodeKVMGet(k0), app.EncodeKVMGet(k1, k0)} {
		got, gotLat, err := fast.InvokeSync(0, read, 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("fast read: %v", err)
		}
		want, _, err := ordered.InvokeSync(0, read, 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("ordered read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fast read = %x, ordered = %x", got, want)
		}
		if gotLat <= 0 {
			t.Fatalf("fast read latency %v", gotLat)
		}
	}
	fastN, fallbacks := fast.Client(0).ReadStats()
	if fastN < 3 { // one single-group read + two scatter legs
		t.Fatalf("fast path served %d reads, want >= 3", fastN)
	}
	if fallbacks != 0 {
		t.Fatalf("%d fallbacks on a clean fabric, want 0", fallbacks)
	}
	// Replicas actually executed unordered reads.
	served := uint64(0)
	for _, g := range fast.Groups {
		for _, r := range g.Replicas {
			served += r.ReadsServed
		}
	}
	if served == 0 {
		t.Fatal("no replica served an unordered read")
	}
	// The ordered deployment's fast-read latency advantage: the fast read
	// of a single group must beat the ordered read of the same payload.
	fastLat := readLatency(t, fast, app.EncodeKVMGet(k0))
	ordLat := readLatency(t, ordered, app.EncodeKVMGet(k0))
	if fastLat >= ordLat {
		t.Fatalf("fast read %v not faster than ordered %v", fastLat, ordLat)
	}
}

func readLatency(t *testing.T, d *shard.Deployment, read []byte) sim.Duration {
	t.Helper()
	_, lat, err := d.InvokeSync(0, read, 50*sim.Millisecond)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return lat
}

// TestFastReadLockedFallsBack: a fast read over a transaction-locked key
// must NOT answer StatusLocked (or stale pre-transaction state) from the
// unordered path — it falls back to the ordered path, parks in the wait
// queue like any ordered read, and answers when the transaction resolves.
// PR 4's wait-queue semantics survive the fast path, and the parked
// request's ExecCost is charged at release (the proc-model fix).
func TestFastReadLockedFallsBack(t *testing.T) {
	const shards = 3
	d := shard.New(shard.Options{
		Seed:       11,
		Shards:     shards,
		NumClients: 2,
		NewApp:     func(int) app.StateMachine { return app.NewKV(0) },
		FastReads:  true,
	})
	defer d.Stop()

	healthy := keyOnShard(t, 0, shards, 0)
	stalled := keyOnShard(t, 2, shards, 0)
	if res, _, err := d.InvokeSync(0, app.EncodeKVSet(healthy, []byte("before")), 50*sim.Millisecond); err != nil || res[0] != app.KVStored {
		t.Fatalf("seed: res=%v err=%v", res, err)
	}
	for _, r := range d.Groups[2].Replicas {
		r.Stop()
	}

	// A cross-shard write locks `healthy` on group 0 until the prepare
	// timeout aborts it (the group-2 participant is stalled).
	write := app.EncodeKVMSet(app.Pair{Key: healthy, Val: []byte("never")}, app.Pair{Key: stalled, Val: []byte("never")})
	var txRes []byte
	if _, err := d.Client(0).Invoke(write, func(res []byte, _ sim.Duration) { txRes = res }); err != nil {
		t.Fatalf("cross-shard write: %v", err)
	}
	d.Eng.RunFor(shard.PrepareTimeout / 2)

	// Mid-prepare, fast-read the locked key from the second client.
	var (
		readRes   []byte
		readFired bool
	)
	if _, err := d.Client(1).Invoke(app.EncodeKVMGet(healthy), func(res []byte, _ sim.Duration) { readRes, readFired = res, true }); err != nil {
		t.Fatalf("read: %v", err)
	}
	d.Eng.RunFor(10 * sim.Millisecond)
	if len(txRes) != 1 || txRes[0] != app.StatusAborted {
		t.Fatalf("transaction outcome %v, want StatusAborted", txRes)
	}
	if !readFired {
		t.Fatal("locked read never resolved")
	}
	if len(readRes) == 1 && readRes[0] == app.StatusLocked {
		t.Fatalf("StatusLocked surfaced to the reader; want parked-and-resumed value")
	}
	if got := decodeSingleRead(t, readRes); got != "before" {
		t.Fatalf("read after abort = %q, want %q (the pre-transaction value)", got, "before")
	}
	_, fallbacks := d.Client(1).ReadStats()
	if fallbacks == 0 {
		t.Fatal("locked fast read did not fall back to the ordered path")
	}
	// The parked read executed at release and was charged for it.
	var charged sim.Duration
	for _, r := range d.Groups[0].Replicas {
		charged += r.DeferredCharged
	}
	if charged <= 0 {
		t.Fatal("released parked request executed free of ExecCost")
	}
}

// decodeSingleRead unpacks a 1-key keyed-read response.
func decodeSingleRead(t *testing.T, res []byte) string {
	t.Helper()
	legs, ok := decodeKeyedReads(res)
	if !ok || len(legs) != 1 {
		t.Fatalf("read response %v", res)
	}
	return legs[0]
}

// TestFastReadMonotonicUnderLossyFabric: under a pre-GST lossy, delaying
// fabric with view changes enabled, one client alternating ordered writes
// with fast reads of the same key must always read its own latest write —
// a fast read can never return a value older than a preceding ordered
// response (monotonic reads and read-your-writes via the per-group floor),
// no matter how stale the quorum replicas are. Deterministic per seed.
func TestFastReadMonotonicUnderLossyFabric(t *testing.T) {
	const rounds = 12
	run := func() (string, uint64, uint64) {
		d := shard.New(shard.Options{
			Seed:       21,
			Shards:     1,
			NumClients: 1,
			NewApp:     func(int) app.StateMachine { return app.NewKV(0) },
			FastReads:  true,
			Group: cluster.Options{Fabric: simnet.AsFabric(simnet.New(sim.NewEngine(21), simnet.Options{
				BaseLatency:   2 * sim.Microsecond,
				Jitter:        sim.Microsecond / 2,
				GST:           sim.Time(20 * sim.Millisecond),
				AsyncExtraMax: 2 * sim.Millisecond,
				AsyncDropProb: 0.10,
			}))},
		})
		defer d.Stop()
		key := keyOnShard(t, 0, 1, 0)
		var trace []byte
		for i := 0; i < rounds; i++ {
			val := []byte(fmt.Sprintf("v%03d", i))
			// Client-side retry on loss: re-invoking is the client
			// retransmission the ordered path relies on pre-GST.
			for attempt := 0; ; attempt++ {
				res, _, err := d.InvokeSync(0, app.EncodeKVSet(key, val), 30*sim.Millisecond)
				if err == nil && len(res) == 1 && res[0] == app.KVStored {
					break
				}
				if attempt > 10 {
					t.Fatalf("write %d never landed: res=%v err=%v", i, res, err)
				}
			}
			var got string
			for attempt := 0; ; attempt++ {
				res, _, err := d.InvokeSync(0, app.EncodeKVMGet(key), 30*sim.Millisecond)
				if err == nil && len(res) > 0 && res[0] == app.StatusOK {
					got = decodeSingleRead(t, res)
					break
				}
				if attempt > 10 {
					t.Fatalf("read %d never resolved: res=%v err=%v", i, res, err)
				}
			}
			// Read-your-writes: the fast read must observe the write this
			// client just had acknowledged — never an older version.
			if got != string(val) {
				t.Fatalf("round %d: read %q after writing %q (stale fast read)", i, got, val)
			}
			trace = append(trace, got...)
		}
		fast, fb := d.Client(0).ReadStats()
		return string(trace), fast, fb
	}
	t1, f1, b1 := run()
	t2, f2, b2 := run()
	if t1 != t2 || f1 != f2 || b1 != b2 {
		t.Fatalf("lossy-fabric fast reads not deterministic: (%q,%d,%d) vs (%q,%d,%d)", t1, f1, b1, t2, f2, b2)
	}
	if f1 == 0 && b1 == 0 {
		t.Fatal("no reads recorded")
	}
}

// TestFastReadSurvivesViewChange: fast reads keep answering correctly when
// the leader crashes — the unordered quorum needs only f+1 live matching
// replicas, and reads issued across the view change still reflect every
// acknowledged write.
func TestFastReadSurvivesViewChange(t *testing.T) {
	d := shard.New(shard.Options{
		Seed:       5,
		Shards:     1,
		NumClients: 1,
		NewApp:     func(int) app.StateMachine { return app.NewKV(0) },
		FastReads:  true,
	})
	defer d.Stop()
	key := keyOnShard(t, 0, 1, 0)
	if res, _, err := d.InvokeSync(0, app.EncodeKVSet(key, []byte("v1")), 50*sim.Millisecond); err != nil || res[0] != app.KVStored {
		t.Fatalf("write v1: res=%v err=%v", res, err)
	}
	if got := readKV(t, d, key); got != "v1" {
		t.Fatalf("read before crash = %q", got)
	}

	// Crash the leader; the next write needs a view change.
	d.Groups[0].Leader().Stop()
	if res, _, err := d.InvokeSync(0, app.EncodeKVSet(key, []byte("v2")), 100*sim.Millisecond); err != nil || res[0] != app.KVStored {
		t.Fatalf("write v2 after leader crash: res=%v err=%v", res, err)
	}
	if got := readKV(t, d, key); got != "v2" {
		t.Fatalf("read after view change = %q, want v2", got)
	}
}

func readKV(t *testing.T, d *shard.Deployment, key []byte) string {
	t.Helper()
	res, _, err := d.InvokeSync(0, app.EncodeKVMGet(key), 100*sim.Millisecond)
	if err != nil || len(res) == 0 || res[0] != app.StatusOK {
		t.Fatalf("read: res=%v err=%v", res, err)
	}
	return decodeSingleRead(t, res)
}

// decodeKeyedReads unpacks the shared keyed-read response shape into
// per-key strings ("<miss>" for absent keys).
func decodeKeyedReads(res []byte) ([]string, bool) {
	if len(res) == 0 || res[0] != app.StatusOK {
		return nil, false
	}
	rd := wire.NewReader(res)
	rd.U8()
	n := int(rd.Uvarint())
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if rd.Bool() {
			out = append(out, string(rd.Bytes()))
		} else {
			out = append(out, "<miss>")
		}
	}
	if rd.Done() != nil {
		return nil, false
	}
	return out, true
}
