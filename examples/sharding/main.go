// sharding demonstrates horizontal scaling: S independent uBFT consensus
// groups on one simulated fabric, the key space hash-partitioned across
// them, all sharing the single 2f_m+1 memory-node pool. Each group has its
// own leader, window and CTBcast tail, so decided requests per virtual
// second grow near-linearly with S; a request spanning groups executes
// across them.
//
//	go run ./examples/sharding
package main

import (
	"fmt"

	ubft "repro"
	"repro/internal/app"
)

func main() {
	fmt.Println("== uBFT horizontal scaling: 4 consensus groups, keys hash-partitioned ==")
	demoCrossShard()
	fmt.Println("\nThroughput over 4 shards is measured and gated by: go run ./bench -workload sim-shard4-txn")
}

func demoCrossShard() {
	const shards = 4
	d := ubft.NewSharded(ubft.ShardOptions{
		Seed:   7,
		Shards: shards,
		NewApp: func(int) ubft.StateMachine { return app.NewRKV() },
	})
	defer d.Stop()

	// Two keys on different shards: an MGET over both scatter-gathers.
	var a, b []byte
	for i := 0; b == nil; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		switch {
		case a == nil:
			a = k
		case app.ShardOfKey(k, shards) != app.ShardOfKey(a, shards):
			b = k
		}
	}
	if res, _, err := d.InvokeSync(0, app.EncodeRSet(a, []byte("v")), 50*ubft.Millisecond); err != nil || res[0] != app.ROK {
		panic(fmt.Sprintf("RSet failed: %v %v", res, err))
	}
	res, lat, err := d.InvokeSync(0, app.EncodeRMGet(a, b), 50*ubft.Millisecond)
	if err != nil || len(res) == 0 {
		panic(fmt.Sprintf("cross-shard MGET failed: res=%v err=%v", res, err))
	}
	fmt.Printf("  MGET(%q@shard%d, %q@shard%d) -> status %d, max-leg latency %v\n",
		a, app.ShardOfKey(a, shards), b, app.ShardOfKey(b, shards), res[0], lat)
}
