// fastreads demonstrates the read consistency ladder built on the MVCC
// versioned stores. Monotonic fast reads skip the ordering pipeline
// entirely — one round trip to all 2f+1 replicas, accepted on f+1
// matching result digests at a compatible state version. Snapshot
// scatter reads pin every cross-shard leg to a per-group frontier
// version, so a read racing a 2PC transaction observes all of it or
// none. Strong reads require all 2f+1 replicas to agree on
// (result, version) — linearizable across clients. Every failure mode
// falls back to the always-correct ordered path.
//
//	go run ./examples/fastreads
package main

import (
	"fmt"

	ubft "repro"
	"repro/internal/app"
)

func main() {
	fmt.Println("== uBFT point read, one key: ordered vs fast vs strong ==")
	demoLatency()

	fmt.Println("\n== Snapshot scatter read across 2 shards (pinned legs) ==")
	demoSnapshot()

	fmt.Println("\nThroughput of a 90%-read mix with fast reads on is measured and gated by: go run ./bench -workload sim-kv-read90")
}

// demoLatency prices the three consistency levels on the same single-key
// GET: ordered (full consensus), monotonic fast (f+1 quorum), strong
// (2f+1 quorum).
func demoLatency() {
	for _, mode := range []struct {
		name         string
		fast, strong bool
	}{
		{"ordered (consensus slot) ", false, false},
		{"fast     (f+1 quorum)    ", true, false},
		{"strong   (2f+1 quorum)   ", false, true},
	} {
		d := ubft.NewSharded(ubft.ShardOptions{
			Seed:        7,
			NewApp:      func(int) ubft.StateMachine { return app.NewKV(0) },
			FastReads:   mode.fast,
			StrongReads: mode.strong,
		})
		key := []byte("greeting")
		if res, _, err := d.InvokeSync(0, app.EncodeKVSet(key, []byte("hello")), 50*ubft.Millisecond); err != nil || res[0] != app.KVStored {
			panic(fmt.Sprintf("seed write: %v %v", res, err))
		}
		res, lat, err := d.InvokeSync(0, app.EncodeKVGet(key), 50*ubft.Millisecond)
		if err != nil {
			panic(err)
		}
		fastN, fallbacks := d.Client(0).ReadStats()
		strongN := d.Client(0).StrongReadStats()
		fmt.Printf("  %s read=%x  latency=%v  fast=%d strong=%d fallbacks=%d\n",
			mode.name, res, lat, fastN, strongN, fallbacks)
		d.Stop()
	}
}

// demoSnapshot runs a cross-shard MGET with fast reads on: both legs are
// pinned to their group's frontier version, so the scatter read is one
// consistent cut even while a cross-shard transaction commits.
func demoSnapshot() {
	const shards = 2
	d := ubft.NewSharded(ubft.ShardOptions{
		Seed:       7,
		Shards:     shards,
		NumClients: 2,
		NewApp:     func(int) ubft.StateMachine { return app.NewKV(0) },
		FastReads:  true,
	})
	defer d.Stop()
	k0, k1 := keyOn(0, shards), keyOn(1, shards)
	for _, k := range [][]byte{k0, k1} {
		if res, _, err := d.InvokeSync(0, app.EncodeKVSet(k, []byte("gen-0")), 50*ubft.Millisecond); err != nil || res[0] != app.KVStored {
			panic(fmt.Sprintf("seed write: %v %v", res, err))
		}
	}
	// Kick off a cross-shard transactional write and immediately race a
	// snapshot scatter read against it.
	if _, err := d.Client(0).Invoke(app.EncodeKVMSet(
		app.Pair{Key: k0, Val: []byte("gen-1")},
		app.Pair{Key: k1, Val: []byte("gen-1")},
	), func([]byte, ubft.Duration) {}); err != nil {
		panic(err)
	}
	res, lat, err := d.InvokeSync(1, app.EncodeKVMGet(k0, k1), 50*ubft.Millisecond)
	if err != nil {
		panic(err)
	}
	fastN, fallbacks := d.Client(1).ReadStats()
	fmt.Printf("  scatter read=%x  latency=%v  fast=%d fallbacks=%d\n", res, lat, fastN, fallbacks)
	fmt.Println("  (both legs carry the same generation — pinned versions forbid a torn read)")
}

// keyOn returns a probe key hashing onto shard s.
func keyOn(s, shards int) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if app.ShardOfKey(k, shards) == s {
			return k
		}
	}
}
