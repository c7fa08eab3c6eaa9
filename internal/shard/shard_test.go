package shard_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
)

// TestShardedKVEndToEnd writes and reads keys through the hash-of-key
// router: a GET must land on the shard that holds its SET.
func TestShardedKVEndToEnd(t *testing.T) {
	d := shard.New(shard.Options{Seed: 1, Shards: 4})
	defer d.Stop()
	if d.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", d.Shards())
	}

	keys := make([][]byte, 0, 16)
	for i := 0; i < 16; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%02d", i)))
	}
	for i, k := range keys {
		val := []byte(fmt.Sprintf("val-%02d", i))
		res, _, err := d.InvokeSync(0, app.EncodeKVSet(k, val), 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("SET %q: %v", k, err)
		}
		if len(res) == 0 || res[0] != app.KVStored {
			t.Fatalf("SET %q: result %v", k, res)
		}
	}
	for i, k := range keys {
		res, lat, err := d.InvokeSync(0, app.EncodeKVGet(k), 50*sim.Millisecond)
		if err != nil {
			t.Fatalf("GET %q: %v", k, err)
		}
		want := []byte(fmt.Sprintf("val-%02d", i))
		if len(res) < 1 || res[0] != app.KVOK || !bytes.Equal(res[2:], want) {
			t.Fatalf("GET %q: result %v (want OK %q)", k, res, want)
		}
		if lat <= 0 {
			t.Fatalf("GET %q: latency %v", k, lat)
		}
	}

	// The keys must actually be spread over several groups (xxhash over 16
	// keys landing all on one of 4 shards would be a routing bug).
	perShard := map[int]int{}
	for _, k := range keys {
		perShard[app.ShardOfKey(k, 4)]++
	}
	if len(perShard) < 2 {
		t.Fatalf("all %d keys routed to one shard: %v", len(keys), perShard)
	}
}

// routerOnly is a minimal custom application implementing Router but not
// Fragmenter/TxnParticipant: the shard layer must route its single-key
// requests and refuse its cross-shard ones with ErrCrossShard (no fan-out
// path), proving the capability interfaces are the entire contract.
type routerOnly struct {
	app.StateMachine
}

// AppendKeys treats the whole payload as a list of single-byte keys.
func (routerOnly) AppendKeys(dst [][]byte, req []byte) ([][]byte, error) {
	for i := range req {
		dst = append(dst, req[i:i+1])
	}
	return dst, nil
}

// TestCrossShardRouting: routing derives from the application's Router
// capability — shard.Route reports cross-shard fan-out via ErrCrossShard,
// the client resolves it for Fragmenter apps (no error reaches the caller,
// shard = MultiShard), and requests with no fan-out path surface the error
// without being submitted.
func TestCrossShardRouting(t *testing.T) {
	const shards = 4
	d := shard.New(shard.Options{
		Seed:   1,
		Shards: shards,
		NewApp: func(int) app.StateMachine { return app.NewRKV() },
	})
	defer d.Stop()

	a, b := keysOnDistinctShards(shards)
	if _, err := shard.Route(app.NewRKV(), app.EncodeRMGet(a, b), shards); err != shard.ErrCrossShard {
		t.Fatalf("Route on cross-shard MGET: err = %v, want ErrCrossShard", err)
	}
	if s, err := shard.Route(app.NewRKV(), app.EncodeRGet(a), shards); err != nil || s != app.ShardOfKey(a, shards) {
		t.Fatalf("Route on single-key GET: s=%d err=%v", s, err)
	}
	s, err := d.Client(0).Invoke(app.EncodeRMGet(a, b), func([]byte, sim.Duration) {})
	if err != nil {
		t.Fatalf("cross-shard MGET: %v (must scatter-gather, not fail)", err)
	}
	if s != shard.MultiShard {
		t.Fatalf("cross-shard MGET shard = %d, want MultiShard", s)
	}

	// An app with Router but no Fragmenter: cross-shard requests must fail
	// cleanly without submitting.
	d2 := shard.New(shard.Options{Seed: 2, Shards: shards,
		NewApp: func(int) app.StateMachine { return routerOnly{app.NewFlip()} }})
	defer d2.Stop()
	var cross []byte
	for i := 0; cross == nil; i++ {
		k := []byte{byte(i)}
		if app.ShardOfKey(k, shards) != app.ShardOfKey([]byte{0}, shards) {
			cross = []byte{0, byte(i)} // two keys on different shards
		}
	}
	called := false
	if _, err := d2.Client(0).Invoke(cross, func([]byte, sim.Duration) { called = true }); err != shard.ErrCrossShard {
		t.Fatalf("unscatterable op: err = %v, want ErrCrossShard", err)
	}
	if called {
		t.Fatal("unscatterable op was submitted despite the error")
	}
	// Its single-key requests still route normally.
	if s, err := d2.Client(0).Invoke([]byte{7}, func([]byte, sim.Duration) {}); err != nil || s != app.ShardOfKey([]byte{7}, shards) {
		t.Fatalf("routerOnly single-key: s=%d err=%v", s, err)
	}
}

// keysOnDistinctShards returns two keys hashing onto different shards.
func keysOnDistinctShards(shards int) (a, b []byte) {
	for i := 0; b == nil; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		switch {
		case a == nil:
			a = k
		case app.ShardOfKey(k, shards) != app.ShardOfKey(a, shards):
			b = k
		}
	}
	return a, b
}

// TestMultiShardDeterminism: the same seed must produce bit-identical
// per-shard results and virtual-time latencies across runs.
func TestMultiShardDeterminism(t *testing.T) {
	type outcome struct {
		res []byte
		lat sim.Duration
		s   int
	}
	run := func() []outcome {
		d := shard.New(shard.Options{Seed: 42, Shards: 3})
		defer d.Stop()
		var out []outcome
		for i := 0; i < 12; i++ {
			k := []byte(fmt.Sprintf("det-%02d", i))
			s, err := d.Client(0).Invoke(app.EncodeKVSet(k, []byte("v")), func([]byte, sim.Duration) {})
			if err != nil {
				t.Fatalf("route %q: %v", k, err)
			}
			res, lat, err := d.InvokeSync(0, app.EncodeKVGet(k), 50*sim.Millisecond)
			if err != nil {
				t.Fatalf("GET %q: %v", k, err)
			}
			out = append(out, outcome{res: res, lat: lat, s: s})
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i].s != y[i].s || x[i].lat != y[i].lat || !bytes.Equal(x[i].res, y[i].res) {
			t.Fatalf("run divergence at request %d: (%d,%v,%v) vs (%d,%v,%v)",
				i, x[i].s, x[i].lat, x[i].res, y[i].s, y[i].lat, y[i].res)
		}
	}
}

// TestRegionAccounting: S groups must occupy exactly S disjoint spans of
// the shared memory nodes (allocation would panic on any overlap), and the
// per-group share must match the single-group footprint.
func TestRegionAccounting(t *testing.T) {
	const shards = 3
	d := shard.New(shard.Options{Seed: 1, Shards: shards})
	defer d.Stop()

	mn := d.MemNodes[0]
	if mn.RegionCount() == 0 {
		t.Fatal("no regions allocated on the shared pool")
	}
	single := shard.New(shard.Options{Seed: 1, Shards: 1})
	defer single.Stop()
	perGroup := single.MemNodes[0].RegionCount()
	if got := mn.RegionCount(); got != shards*perGroup {
		t.Fatalf("region count = %d, want %d (S=%d x %d per group)", got, shards*perGroup, shards, perGroup)
	}
	base := d.DisaggregatedBytesOf(0)
	if base == 0 {
		t.Fatal("group 0 owns no disaggregated bytes")
	}
	for s := 1; s < shards; s++ {
		if got := d.DisaggregatedBytesOf(s); got != base {
			t.Fatalf("group %d owns %d bytes, group 0 owns %d (spans must be identical)", s, got, base)
		}
	}
	if mn.AllocatedBytes != shards*base {
		t.Fatalf("pool holds %d bytes, want %d (S x per-group span)", mn.AllocatedBytes, shards*base)
	}
}

// TestShardOptionsValidation: broken group options must be rejected at
// assembly time, not assembled into a silently broken deployment, and so
// must the Group fields the deployment-level ones replace.
func TestShardOptionsValidation(t *testing.T) {
	// want is a substring of the panic: the field to set instead, or the
	// offending one.
	mustPanic := func(name, want string, opts shard.Options) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: New did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not name %s", name, msg, want)
			}
		}()
		shard.New(opts)
	}
	mustPanic("negative shards", "Shards", shard.Options{Shards: -1})
	mustPanic("negative F", "F=", shard.Options{Group: cluster.Options{F: -1}})
	mustPanic("tail > window", "Tail", shard.Options{Group: cluster.Options{Window: 8, Tail: 16}})
	mustPanic("group seed", "Options.Seed", shard.Options{Group: cluster.Options{Seed: 3}})
	mustPanic("group clients", "Options.NumClients", shard.Options{Group: cluster.Options{NumClients: 2}})
	mustPanic("group app", "Options.NewApp", shard.Options{Group: cluster.Options{NewApp: func() app.StateMachine { return app.NewKV(0) }}})
}

// TestLeanMemNodePool: Group.MemNodes sizes the shared pool (any size in
// [Fm+1, 2Fm+1] keeps SWMR quorum intersection). A 2-node pool at Fm=1
// must build exactly 2 memory nodes — not the 2Fm+1 the shard layer used
// to hard-code — and serve single- and cross-shard requests.
func TestLeanMemNodePool(t *testing.T) {
	d := shard.New(shard.Options{Seed: 5, Shards: 2, Group: cluster.Options{Fm: 1, MemNodes: 2}})
	defer d.Stop()
	if len(d.MemNodes) != 2 || len(d.Layout.MemNodes) != 2 {
		t.Fatalf("built %d memory nodes (%d ids), want 2", len(d.MemNodes), len(d.Layout.MemNodes))
	}
	a, b := keyOnShard(t, 0, 2, 0), keyOnShard(t, 1, 2, 0)
	invoke := func(what string, req []byte, ok byte) []byte {
		t.Helper()
		res, _, err := d.InvokeSync(0, req, 50*sim.Millisecond)
		if err != nil || len(res) == 0 || res[0] != ok {
			t.Fatalf("%s: result %v, err %v", what, res, err)
		}
		return res
	}
	invoke("single-shard SET", app.EncodeKVSet(a, []byte("one")), app.KVStored)
	invoke("cross-shard MSET", app.EncodeKVMSet(app.Pair{Key: a, Val: []byte("two")}, app.Pair{Key: b, Val: []byte("two")}), app.StatusOK)
	if res := invoke("cross-shard MGET", app.EncodeKVMGet(a, b), app.StatusOK); bytes.Count(res, []byte("two")) != 2 {
		t.Fatalf("cross-shard MGET after the MSET = %q, want both keys at \"two\"", res)
	}
}
